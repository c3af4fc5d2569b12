//! The exchange driver: every node's retried, unconfirmed work is a row of
//! one table, keyed by a token (DESIGN.md §2.4 lists every owner's rows).
//! The coordinator, the data bucket and the client each own one table.
//! A row opens as its first round goes out, re-sends once per period
//! ([`Owner::round`]), and after its round limit concludes into the
//! owner's `exhausted`; the answer that completes the work settles it. A
//! watchdog is a row whose limit is 0: it concludes on its first firing.
//!
//! To add a row: a variant of the owner's kind enum, its period (computed
//! saturating, so that no accepted config overflows it) and limit in the
//! [`Schedule`] impl, an arm in `resend` (none for a watchdog) and
//! in `exhausted`; open or start the row where the work begins and settle
//! it where the answer lands. Then pin its re-sends and give-up outcome in
//! `tests/coordinator_exchanges.rs`.

use std::collections::VecDeque;

use lhrs_sim::{Env, NodeId, TimerId};

use crate::msg::Msg;
use crate::Config;

/// What an owner states per kind of row.
pub(crate) trait Schedule {
    /// How long round `round` waits, µs; round 0 is the first send's.
    fn period(&self, cfg: &Config, round: u32) -> u64;
    /// Re-send rounds before the row concludes.
    fn limit(&self, cfg: &Config) -> u32;
    /// Whether a round, the first one in [`Owner::start`] included, arms
    /// the row's timer before its sends go out rather than after them.
    /// The order is observable: the simulator numbers effects as they are
    /// emitted, and draws its fault decisions and same-instant tie-breaks
    /// from those numbers.
    fn arm_first(&self) -> bool {
        false
    }
}

struct Row<K> {
    token: u64,
    timer: TimerId,
    rounds: u32,
    kind: K,
}

/// A node's exchanges in flight, in token order. A server has a handful
/// at most and a client one per op in flight, so a sorted `VecDeque`
/// serves: tokens grow, so rows open at the back, and answers come mostly
/// in order, so rows settle near the front, where removal shifts little.
/// It allocates nothing once warm.
pub(crate) struct Exchanges<K> {
    rows: VecDeque<Row<K>>,
}

impl<K: Schedule> Exchanges<K> {
    pub(crate) fn new() -> Self {
        Exchanges {
            rows: VecDeque::new(),
        }
    }

    fn index(&self, token: u64) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&token, |r| r.token)
    }

    /// Open row `token` as its first round goes out, and arm its timer.
    /// A row already open under `token` is replaced, its timer cancelled.
    pub(crate) fn open(&mut self, env: &mut Env<'_, Msg>, cfg: &Config, token: u64, kind: K) {
        let i = match self.index(token) {
            Ok(i) => {
                if let Some(old) = self.rows.remove(i) {
                    env.cancel_timer(old.timer);
                }
                i
            }
            Err(i) => i,
        };
        let timer = env.set_timer(kind.period(cfg, 0));
        let row = Row {
            token,
            timer,
            rounds: 0,
            kind,
        };
        self.rows.insert(i, row);
    }

    /// Conclude row `token`: cancel its timer and hand back its state.
    pub(crate) fn settle(&mut self, env: &mut Env<'_, Msg>, token: u64) -> Option<K> {
        let row = self.rows.remove(self.index(token).ok()?)?;
        env.cancel_timer(row.timer);
        Some(row.kind)
    }

    pub(crate) fn is_open(&self, token: u64) -> bool {
        self.index(token).is_ok()
    }

    /// The token of the first row whose state satisfies `pred`.
    pub(crate) fn find(&self, pred: impl Fn(&K) -> bool) -> Option<u64> {
        self.rows.iter().find(|r| pred(&r.kind)).map(|r| r.token)
    }

    /// The first row whose state satisfies `pred`: its token and state.
    pub(crate) fn find_mut(&mut self, pred: impl Fn(&K) -> bool) -> Option<(u64, &mut K)> {
        let row = self.rows.iter_mut().find(|r| pred(&r.kind))?;
        Some((row.token, &mut row.kind))
    }

    pub(crate) fn any(&self, pred: impl Fn(&K) -> bool) -> bool {
        self.find(pred).is_some()
    }

    pub(crate) fn get(&self, token: u64) -> Option<&K> {
        self.rows.get(self.index(token).ok()?).map(|r| &r.kind)
    }

    pub(crate) fn get_mut(&mut self, token: u64) -> Option<&mut K> {
        let i = self.index(token).ok()?;
        self.rows.get_mut(i).map(|r| &mut r.kind)
    }

    /// Progress on row `token`: its round count starts again.
    pub(crate) fn reset_rounds(&mut self, token: u64) {
        if let Some(row) = self.rows.iter_mut().find(|r| r.token == token) {
            row.rounds = 0;
        }
    }
}

/// A node that keeps its retried work in an [`Exchanges`] table.
pub(crate) trait Owner {
    type Kind: Schedule;

    /// The owner's table, and the configuration its schedules read.
    fn exchanges(&mut self) -> (&mut Exchanges<Self::Kind>, &Config);

    /// What row `token` in state `kind` still waits on in round `round`,
    /// as the messages that ask for it again; empty when nothing is left
    /// to ask. The owner may update itself and the row's state as it
    /// asks; the driver emits the sends.
    fn resend(
        &mut self,
        env: &Env<'_, Msg>,
        token: u64,
        round: u32,
        kind: &mut Self::Kind,
    ) -> Vec<(NodeId, Msg)>;

    /// Conclude row `token`, whose rounds ran out.
    fn exhausted(&mut self, env: &mut Env<'_, Msg>, token: u64, kind: Self::Kind);

    /// Open a row by sending its first round, everything `resend` asks
    /// for, and arming its timer.
    fn start(&mut self, env: &mut Env<'_, Msg>, token: u64, mut kind: Self::Kind) {
        let sends = self.resend(env, token, 0, &mut kind);
        let arm_first = kind.arm_first();
        let (table, cfg) = self.exchanges();
        emit(env, arm_first, sends, |env| table.open(env, cfg, token, kind));
    }

    /// Timer handler: one round of the row the timer belongs to. Past the
    /// row's limit, or with nothing left to re-send, the row concludes;
    /// otherwise `resend`'s messages go out and the timer re-arms. A timer
    /// no row holds is stale.
    fn round(&mut self, env: &mut Env<'_, Msg>, timer: TimerId) {
        let (table, cfg) = self.exchanges();
        let i = table.rows.iter().position(|r| r.timer == timer);
        let Some(mut row) = i.and_then(|i| table.rows.remove(i)) else {
            return;
        };
        row.rounds = row.rounds.saturating_add(1);
        let (limit, period) = (row.kind.limit(cfg), row.kind.period(cfg, row.rounds));
        let sends = if row.rounds > limit {
            Vec::new()
        } else {
            self.resend(env, row.token, row.rounds, &mut row.kind)
        };
        if sends.is_empty() {
            return self.exhausted(env, row.token, row.kind);
        }
        let arm = |env: &mut Env<'_, Msg>| row.timer = env.set_timer(period);
        emit(env, row.kind.arm_first(), sends, arm);
        let table = self.exchanges().0;
        let (Ok(i) | Err(i)) = table.index(row.token);
        table.rows.insert(i, row);
    }
}

/// Send one round's messages and arm its row's timer (`arm`): first or
/// last, as the row's [`Schedule::arm_first`] says.
fn emit(
    env: &mut Env<'_, Msg>,
    arm_first: bool,
    sends: Vec<(NodeId, Msg)>,
    arm: impl FnOnce(&mut Env<'_, Msg>),
) {
    let send = |env: &mut Env<'_, Msg>| {
        for (node, msg) in sends {
            env.send(node, msg);
        }
    };
    if arm_first {
        arm(env);
        send(env);
    } else {
        send(env);
        arm(env);
    }
}
