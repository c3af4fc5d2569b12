//! The exchange driver: each node's retried, unconfirmed work is a row of
//! one table, keyed by a token (DESIGN.md §2.4 lists every owner's rows).
//! A row opens as its first round goes out, re-sends once per period
//! ([`Owner::round`]), and after its round limit concludes into the
//! owner's `exhausted`; the answer that completes the work settles it. A
//! watchdog is a row whose limit is 0: it concludes on its first firing.
//!
//! To add a row: a variant of the owner's kind enum, its period and limit
//! in the [`Schedule`] impl, an arm in `resend` (none for a watchdog) and
//! in `exhausted`; open or start the row where the work begins and settle
//! it where the answer lands. Then pin its re-sends and give-up outcome in
//! `tests/coordinator_exchanges.rs`.

use lhrs_sim::{Env, NodeId, TimerId};

use crate::msg::Msg;
use crate::Config;

/// What an owner states per kind of row.
pub(crate) trait Schedule {
    /// How long one round waits, µs.
    fn period(&self, cfg: &Config) -> u64;
    /// Re-send rounds before the row concludes.
    fn limit(&self, cfg: &Config) -> u32;
}

struct Row<K> {
    token: u64,
    timer: TimerId,
    rounds: u32,
    kind: K,
}

/// A node's exchanges in flight, in token order. A node has a handful at
/// most, so a sorted `Vec` serves; it allocates nothing once warm.
pub(crate) struct Exchanges<K> {
    rows: Vec<Row<K>>,
}

impl<K: Schedule> Exchanges<K> {
    pub(crate) fn new() -> Self {
        Exchanges { rows: Vec::new() }
    }

    fn index(&self, token: u64) -> Result<usize, usize> {
        self.rows.binary_search_by_key(&token, |r| r.token)
    }

    /// Open row `token` as its first round goes out, and arm its timer.
    /// A row already open under `token` is replaced, its timer cancelled.
    pub(crate) fn open(&mut self, env: &mut Env<'_, Msg>, cfg: &Config, token: u64, kind: K) {
        let i = match self.index(token) {
            Ok(i) => {
                env.cancel_timer(self.rows.remove(i).timer);
                i
            }
            Err(i) => i,
        };
        let timer = env.set_timer(kind.period(cfg));
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
        let row = self.rows.remove(self.index(token).ok()?);
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

    /// What row `token` in state `kind` still waits on, as the messages
    /// that ask for it again; empty when nothing is left to ask.
    fn resend(&self, env: &Env<'_, Msg>, token: u64, kind: &Self::Kind) -> Vec<(NodeId, Msg)>;

    /// Conclude a row whose rounds ran out.
    fn exhausted(&mut self, env: &mut Env<'_, Msg>, kind: Self::Kind);

    /// Open a row by sending its first round, everything `resend` asks
    /// for, then arming its timer.
    fn start(&mut self, env: &mut Env<'_, Msg>, token: u64, kind: Self::Kind) {
        for (node, msg) in self.resend(env, token, &kind) {
            env.send(node, msg);
        }
        let (table, cfg) = self.exchanges();
        table.open(env, cfg, token, kind);
    }

    /// Timer handler: one round of the row the timer belongs to. Past the
    /// row's limit, or with nothing left to re-send, the row concludes;
    /// otherwise `resend`'s messages go out and the timer re-arms. A timer
    /// no row holds is stale.
    fn round(&mut self, env: &mut Env<'_, Msg>, timer: TimerId) {
        let (table, cfg) = self.exchanges();
        let Some(i) = table.rows.iter().position(|r| r.timer == timer) else {
            return;
        };
        let mut row = table.rows.remove(i);
        row.rounds = row.rounds.saturating_add(1);
        let (limit, period) = (row.kind.limit(cfg), row.kind.period(cfg));
        let sends = if row.rounds > limit {
            Vec::new()
        } else {
            self.resend(env, row.token, &row.kind)
        };
        if sends.is_empty() {
            return self.exhausted(env, row.kind);
        }
        for (node, msg) in sends {
            env.send(node, msg);
        }
        row.timer = env.set_timer(period);
        self.exchanges().0.rows.insert(i, row);
    }
}
