//! Integration tests of the fault-injection layer through the public API:
//! loss, duplication, reordering, partitions — and the bit-for-bit
//! determinism of all of them.

use lhrs_sim::{Actor, Env, FaultPlan, LatencyModel, NodeId, Partition, Payload, Sim};

#[derive(Clone, Debug, PartialEq)]
struct Num(u32);

impl Payload for Num {
    fn kind(&self) -> &'static str {
        "num"
    }
    fn size_bytes(&self) -> usize {
        4
    }
}

#[derive(Default)]
struct Recorder {
    seen: Vec<(NodeId, u32)>,
    forward_to: Option<NodeId>,
}

impl Actor<Num> for Recorder {
    fn on_message(&mut self, env: &mut Env<'_, Num>, from: NodeId, msg: Num) {
        self.seen.push((from, msg.0));
        if let Some(peer) = self.forward_to {
            env.send(peer, msg);
        }
    }
}

/// `count` messages relayed a→b under `plan`; returns b's delivery log.
fn relay_run(count: u32, plan: Option<FaultPlan>, latency: LatencyModel) -> Vec<u32> {
    let mut sim: Sim<Num, Recorder> = Sim::new(latency);
    let a = sim.add_node(Recorder::default());
    let b = sim.add_node(Recorder::default());
    sim.actor_mut(a).forward_to = Some(b);
    if let Some(p) = plan {
        sim.set_fault_plan(p);
    }
    for i in 0..count {
        sim.send_external(a, Num(i));
    }
    sim.run_until_idle();
    sim.actor(b).seen.iter().map(|(_, v)| *v).collect()
}

#[test]
fn loss_drops_messages_and_is_tallied() {
    let mut sim: Sim<Num, Recorder> = Sim::new(LatencyModel::instant());
    let a = sim.add_node(Recorder::default());
    let b = sim.add_node(Recorder::default());
    sim.actor_mut(a).forward_to = Some(b);
    sim.set_fault_plan(FaultPlan::new(11).drop_permille(500)); // 50%
    for i in 0..400 {
        sim.send_external(a, Num(i));
    }
    sim.run_until_idle();
    let delivered = sim.actor(b).seen.len() as u64;
    let stats = sim.metrics().snapshot();
    let lost = stats.counter("fault_dropped", "");
    assert_eq!(delivered + lost, 400);
    assert_eq!(stats.count("num"), 400, "a lost message was still sent");
    assert!((100..300).contains(&lost), "≈50% of 400 lost, got {lost}");
    // External injections into `a` were exempt: a saw everything.
    assert_eq!(sim.actor(a).seen.len(), 400);
}

#[test]
fn duplication_delivers_extra_copies() {
    let got = relay_run(
        200,
        Some(FaultPlan::new(5).dup_permille(1000)), // duplicate everything
        LatencyModel::instant(),
    );
    assert_eq!(got.len(), 400, "every relayed message arrives twice");
    for i in 0..200 {
        assert_eq!(got.iter().filter(|&&v| v == i).count(), 2);
    }
}

#[test]
fn reordering_breaks_fifo_but_loses_nothing() {
    let plan = FaultPlan::new(3)
        .reorder_permille(300)
        .reorder_window_us(2_000);
    let got = relay_run(300, Some(plan), LatencyModel::fixed(100));
    assert_eq!(got.len(), 300, "reordering must not lose messages");
    let mut sorted = got.clone();
    sorted.sort_unstable();
    assert_ne!(got, sorted, "with 30% reorder some message must overtake");
    assert_eq!(sorted, (0..300).collect::<Vec<u32>>());
}

#[test]
fn runs_with_faults_are_bit_identical() {
    let plan = || {
        FaultPlan::new(77)
            .drop_permille(50)
            .dup_permille(50)
            .reorder_permille(100)
            .reorder_window_us(700)
    };
    let a = relay_run(500, Some(plan()), LatencyModel::default());
    let b = relay_run(500, Some(plan()), LatencyModel::default());
    assert_eq!(a, b);
    // A different seed gives a different schedule.
    let c = relay_run(
        500,
        Some(plan().drop_permille(50).dup_permille(50)), // same rates...
        LatencyModel::default(),
    );
    assert_eq!(a, c, "same seed, same rates: identical");
    let d = relay_run(
        500,
        Some(
            FaultPlan::new(78)
                .drop_permille(50)
                .dup_permille(50)
                .reorder_permille(100)
                .reorder_window_us(700),
        ),
        LatencyModel::default(),
    );
    assert_ne!(a, d, "different seed: different fault schedule");
}

#[test]
fn partition_window_blocks_then_heals() {
    let mut sim: Sim<Num, Recorder> = Sim::new(LatencyModel::fixed(10));
    let a = sim.add_node(Recorder::default());
    let b = sim.add_node(Recorder::default());
    sim.actor_mut(a).forward_to = Some(b);
    // b is cut off between t=0 and t=1000 µs.
    sim.set_fault_plan(FaultPlan::new(0).partition(Partition::new(vec![b], 0, 1000)));
    sim.send_external(a, Num(1)); // relayed at t=10, inside the window
    sim.run_until(5_000);
    assert!(sim.actor(b).seen.is_empty());
    assert_eq!(sim.metrics().counter("partition_dropped"), 1);
    // After the window closes the channel works again.
    sim.send_external(a, Num(2));
    sim.run_until_idle();
    assert_eq!(sim.actor(b).seen, vec![(a, 2)]);
}

#[test]
fn clearing_the_plan_restores_reliability() {
    let mut sim: Sim<Num, Recorder> = Sim::new(LatencyModel::instant());
    let a = sim.add_node(Recorder::default());
    let b = sim.add_node(Recorder::default());
    sim.actor_mut(a).forward_to = Some(b);
    sim.set_fault_plan(FaultPlan::new(1).drop_permille(1000));
    sim.send_external(a, Num(1));
    sim.run_until_idle();
    assert!(sim.actor(b).seen.is_empty());
    assert!(sim.fault_plan().is_some());
    sim.clear_fault_plan();
    sim.send_external(a, Num(2));
    sim.run_until_idle();
    assert_eq!(sim.actor(b).seen, vec![(a, 2)]);
}
