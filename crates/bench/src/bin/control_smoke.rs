//! Control-plane fault-domain smoke test.
//!
//! Runs fixed Nimbus-outage scenarios through [`run_control_outage`]
//! and the two-plane fault-plan harness, and writes `BENCH_control.json`
//! in the current directory:
//!
//! * **Failover case** — the victim crashes *while Nimbus is down*, so
//!   no incumbent ever observes the silence. A journaled successor
//!   seeds the roster's heartbeats on reassumption, detects the crash,
//!   and reschedules inside the replay budget: `zero_loss_ratio` must
//!   be exactly `1.0`. The journal-less twin of the same scenario is
//!   structurally blind — it must actually lose roots, proving the
//!   journal is load-bearing rather than vacuously pinned.
//! * **Replay case** — the crash is detected and rescheduled *before*
//!   the outage; the successor must replay at least the dead
//!   declaration and the reschedule from the journal, without declaring
//!   the victim dead a second time.
//!
//! Both composed scenarios are also run through [`run_fault_plan_with`]
//! so the reconciliation audit ([`rstorm_sim::ReconcileAudit`]) checks
//! convergence and placement integrity. The case lines carry
//! `failover_zero_loss` and `reconciliation_convergence`, which
//! `bench_guard` pins at exactly `1.0` with no environment-variable
//! relaxation.
//!
//! Run with `cargo run --release -p rstorm-bench --bin control_smoke`.

use rstorm_bench::harness::BenchReport;
use rstorm_cluster::{Cluster, ClusterBuilder, ResourceCapacity};
use rstorm_core::{schedulers, GlobalState, RecoveryConfig};
use rstorm_sim::{
    run_control_outage, run_fault_plan_with, ChaosConfig, ControlOutageConfig, FaultPlan, SimConfig,
};
use rstorm_topology::{ExecutionProfile, TaskSet, Topology, TopologyBuilder};
use std::sync::Arc;
use std::time::Instant;

/// Failover-case victim crash time (milliseconds) — inside the outage.
const FAILOVER_CRASH_AT_MS: f64 = 15_000.0;
/// Failover-case Nimbus window: `[13 s, 23 s)`, fully masking the crash.
const FAILOVER_NIMBUS_AT_MS: f64 = 13_000.0;
/// Length of the failover-case Nimbus outage (milliseconds).
const FAILOVER_NIMBUS_DOWN_MS: f64 = 10_000.0;
/// When the failover-case victim would heartbeat again — late enough
/// that a blind control plane gets no second chance to see it crash.
const FAILOVER_HEAL_AT_MS: f64 = 55_000.0;
/// Replay-case crash/heal: detected, rescheduled, and readmitted well
/// before Nimbus dies at 14 s.
const REPLAY_CRASH_AT_MS: f64 = 5_000.0;
/// Replay-case heal time (milliseconds).
const REPLAY_HEAL_AT_MS: f64 = 12_000.0;
/// Replay-case Nimbus window start (milliseconds).
const REPLAY_NIMBUS_AT_MS: f64 = 14_000.0;
/// Length of the replay-case Nimbus outage (milliseconds).
const REPLAY_NIMBUS_DOWN_MS: f64 = 8_000.0;
/// Root replay budget of the failover case: `(3 + 1) x 5 s = 20 s` of
/// retries — wide enough to bridge the journaled successor's detect-
/// and-reschedule latency (~10 s), narrow enough that the blind twin
/// exhausts it with most of the 60 s horizon left.
const FAILOVER_MAX_REPLAYS: u32 = 3;
/// Tuple timeout pairing with [`FAILOVER_MAX_REPLAYS`].
const FAILOVER_TUPLE_TIMEOUT_MS: f64 = 5_000.0;

/// Two racks of two Emulab-profile nodes, as in the fuzz smoke.
fn cluster() -> Arc<Cluster> {
    Arc::new(
        ClusterBuilder::new()
            .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 4)
            .build()
            .expect("2x2 emulab cluster builds"),
    )
}

/// A topology whose two components cannot colocate (1.4 GB each on 2 GB
/// nodes), as in the fuzz smoke: the spout stays alive when the sink's
/// node crashes, so replays keep re-emitting into the outage and the
/// retry budget genuinely drains when nobody reschedules the sink.
fn split_topology() -> Topology {
    let mut b = TopologyBuilder::new("control-smoke");
    b.set_spout("src", 1)
        .set_profile(ExecutionProfile::network_bound(100))
        .set_cpu_load(20.0)
        .set_memory_load(1_400.0);
    b.set_bolt("sink", 1)
        .shuffle_grouping("src")
        .set_profile(ExecutionProfile::network_bound(100).into_sink())
        .set_cpu_load(20.0)
        .set_memory_load(1_400.0);
    b.build().expect("split topology builds")
}

/// The node hosting the sink under the R-Storm scheduler — crashing it
/// severs the tuple path while leaving the spout emitting.
fn sink_node(cluster: &Cluster, topology: &Topology) -> String {
    let scheduler = schedulers::by_name("rstorm").expect("rstorm scheduler exists");
    let mut state = GlobalState::new(cluster);
    let a = scheduler
        .schedule(topology, cluster, &mut state)
        .expect("split topology places");
    let tasks = TaskSet::instantiate(topology);
    let sink_task = tasks
        .tasks()
        .iter()
        .find(|t| t.component.as_str() == "sink")
        .expect("the topology has a sink")
        .id;
    let host = a
        .iter()
        .find(|(task, _)| *task == sink_task)
        .expect("the sink is placed")
        .1
        .node
        .as_str()
        .to_owned();
    host
}

/// The failover scenario's simulation knobs (see the budget constants).
fn failover_sim() -> SimConfig {
    let mut sim = SimConfig::quick().with_max_replays(FAILOVER_MAX_REPLAYS);
    sim.tuple_timeout_ms = FAILOVER_TUPLE_TIMEOUT_MS;
    sim
}

fn main() {
    let mut report = BenchReport::new("Control-plane fault domain", "ns");
    let cluster = cluster();
    let topology = split_topology();
    let victim = sink_node(&cluster, &topology);
    let scheduler = schedulers::by_name("rstorm").expect("rstorm scheduler exists");

    // -- Failover case: crash masked by the outage. --
    let mut chaos = ChaosConfig::new(&victim, FAILOVER_CRASH_AT_MS, FAILOVER_HEAL_AT_MS);
    chaos.sim = failover_sim();
    chaos.recovery.journal = true;
    let cfg = ControlOutageConfig::new(chaos, FAILOVER_NIMBUS_AT_MS, FAILOVER_NIMBUS_DOWN_MS);
    let t0 = Instant::now();
    let journaled =
        run_control_outage(&cluster, &topology, &cfg, &*scheduler).expect("failover case runs");
    let failover_ns = t0.elapsed().as_nanos() as u64;
    let journaled_audit = journaled
        .reconciliation
        .expect("an outage carries an audit");
    assert!(
        journaled_audit.time_to_reassume_ms >= FAILOVER_NIMBUS_DOWN_MS,
        "successor reassumed after {} ms of a {} ms outage",
        journaled_audit.time_to_reassume_ms,
        FAILOVER_NIMBUS_DOWN_MS
    );
    assert!(
        journaled.observations.time_to_detect_ms > 0.0,
        "the journaled successor must detect the masked crash"
    );
    let journaled_zero_loss = journaled.report.zero_loss_ratio();
    assert_eq!(
        journaled_zero_loss, 1.0,
        "journaled failover lost settled roots (ratio {journaled_zero_loss})"
    );

    // The journal-less twin must actually lose: a cold successor never
    // saw the victim heartbeat, so detection is structurally impossible
    // and the replay budget drains dry.
    let mut cold_cfg = cfg.clone();
    cold_cfg.chaos.recovery.journal = false;
    let cold =
        run_control_outage(&cluster, &topology, &cold_cfg, &*scheduler).expect("cold twin runs");
    assert_eq!(
        cold.observations.time_to_detect_ms, -1.0,
        "a cold successor cannot detect a pre-failover silence"
    );
    let cold_zero_loss = cold.report.zero_loss_ratio();
    assert!(
        cold_zero_loss < 1.0,
        "the journal-less twin must lose roots, or the pin proves nothing \
         (ratio {cold_zero_loss})"
    );

    // -- Replay case: decisions journaled before the outage. --
    let mut chaos = ChaosConfig::new(&victim, REPLAY_CRASH_AT_MS, REPLAY_HEAL_AT_MS);
    chaos.sim = SimConfig::quick().with_max_replays(8);
    chaos.recovery.journal = true;
    let cfg = ControlOutageConfig::new(chaos, REPLAY_NIMBUS_AT_MS, REPLAY_NIMBUS_DOWN_MS);
    let t0 = Instant::now();
    let replayed =
        run_control_outage(&cluster, &topology, &cfg, &*scheduler).expect("replay case runs");
    let replay_ns = t0.elapsed().as_nanos() as u64;
    let replayed_audit = replayed.reconciliation.expect("an outage carries an audit");
    assert!(
        replayed_audit.decisions_replayed >= 2,
        "expected the declare + reschedule records in the journal, replayed {}",
        replayed_audit.decisions_replayed
    );
    assert_eq!(
        replayed.report.zero_loss_ratio(),
        1.0,
        "the pre-outage reschedule keeps the replay case lossless"
    );

    // -- Reconciliation audits over both composed scenarios. --
    let journal_on = RecoveryConfig {
        journal: true,
        ..RecoveryConfig::default()
    };
    let plans = [
        FaultPlan::new()
            .crash_node(FAILOVER_CRASH_AT_MS, &victim)
            .recover_node(40_000.0, &victim)
            .nimbus_crash(FAILOVER_NIMBUS_AT_MS, FAILOVER_NIMBUS_DOWN_MS),
        FaultPlan::new()
            .crash_node(REPLAY_CRASH_AT_MS, &victim)
            .recover_node(REPLAY_HEAL_AT_MS, &victim)
            .nimbus_crash(REPLAY_NIMBUS_AT_MS, REPLAY_NIMBUS_DOWN_MS),
    ];
    let mut audits = 0_u32;
    let mut audits_passed = 0_u32;
    for plan in &plans {
        let out = run_fault_plan_with(
            &cluster,
            &topology,
            plan,
            &SimConfig::quick().with_max_replays(8),
            &journal_on,
            &*scheduler,
        )
        .expect("audit plan runs");
        let audit = out
            .reconciliation
            .expect("control-fault plans carry a reconciliation audit");
        audits += 1;
        let passed = audit.converged && !audit.double_placed_or_orphaned;
        assert!(
            passed,
            "reconciliation audit failed: converged={} double_placed_or_orphaned={}",
            audit.converged, audit.double_placed_or_orphaned
        );
        audits_passed += u32::from(passed);
    }
    let convergence = f64::from(audits_passed) / f64::from(audits);

    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>10}",
        "case", "reassume_ms", "zero_loss", "replayed", "wall"
    );
    println!(
        "{:<10} {:>14.0} {:>12.3} {:>12} {:>7.2} s",
        "failover",
        journaled_audit.time_to_reassume_ms,
        journaled_zero_loss,
        journaled_audit.decisions_replayed,
        failover_ns as f64 / 1e9
    );
    println!(
        "{:<10} {:>14.0} {:>12.3} {:>12} {:>7.2} s",
        "replay",
        replayed_audit.time_to_reassume_ms,
        replayed.report.zero_loss_ratio(),
        replayed_audit.decisions_replayed,
        replay_ns as f64 / 1e9
    );
    println!("cold twin zero_loss_ratio: {cold_zero_loss:.3} (journal off, loses by design)");
    println!("reconciliation audits: {audits_passed}/{audits} converged");

    report.push_case(format!(
        "{{\"name\": \"control/failover\", \"wall_ns\": {failover_ns}, \
         \"time_to_reassume_ms\": {:?}, \"journaled_zero_loss\": {journaled_zero_loss:?}, \
         \"cold_zero_loss\": {cold_zero_loss:?}, \"failover_zero_loss\": {journaled_zero_loss:?}}}",
        journaled_audit.time_to_reassume_ms
    ));
    report.push_case(format!(
        "{{\"name\": \"control/replay\", \"wall_ns\": {replay_ns}, \
         \"time_to_reassume_ms\": {:?}, \"decisions_replayed\": {}, \
         \"reconciliation_convergence\": {convergence:?}}}",
        replayed_audit.time_to_reassume_ms, replayed_audit.decisions_replayed
    ));
    report.write("BENCH_control.json");
}
