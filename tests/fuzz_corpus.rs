//! Replays the chaos-fuzzer regression corpus and property-checks the
//! shrinker's contract.
//!
//! Every `.plan` file under `tests/fuzz_corpus/` is a minimal
//! reproducer the fuzzer once shrank from a violating fault plan (see
//! the directory's README). Replaying them through the full oracle set
//! on the honest engine must be clean: a violation here is a real
//! robustness regression, caught without re-running the fuzzer.

use proptest::prelude::*;
use rstorm::cluster::{Cluster, ClusterBuilder, ResourceCapacity};
use rstorm::scheduler::{RStormScheduler, RecoveryConfig};
use rstorm::sim::{check_fault_plan, run_fuzz_campaign, FuzzConfig, FuzzReproducer, SimConfig};
use rstorm::topology::{ExecutionProfile, Topology, TopologyBuilder};
use std::path::PathBuf;
use std::sync::Arc;

/// The corpus cluster: two racks of two Emulab-profile nodes
/// (`rack-0-node-0` … `rack-1-node-1`), the names the corpus plans
/// refer to.
fn cluster() -> Arc<Cluster> {
    Arc::new(
        ClusterBuilder::new()
            .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 4)
            .build()
            .expect("2x2 emulab cluster builds"),
    )
}

/// The corpus workload: two components at 1.4 GB each on 2 GB nodes, so
/// spout and sink never colocate and node faults disturb the tuple path.
fn split_topology() -> Topology {
    let mut b = TopologyBuilder::new("fuzz-corpus");
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

/// The honest twin of the configuration the corpus entries were mined
/// under: same tight replay budget and short tuple timeout (so the
/// plans still reach quarantine pressure), no planted bug.
fn honest_cfg() -> FuzzConfig {
    let mut sim = SimConfig::quick()
        .with_sim_time_ms(30_000.0)
        .with_max_replays(1);
    sim.tuple_timeout_ms = 3_000.0;
    FuzzConfig {
        iterations: 1,
        seed: 42,
        max_atoms: 3,
        sim,
        recovery: RecoveryConfig::default(),
    }
}

/// The planted twin: identical except the drain-ledger bug is armed.
fn planted_cfg(iterations: u32, seed: u64) -> FuzzConfig {
    let mut cfg = honest_cfg();
    cfg.iterations = iterations;
    cfg.seed = seed;
    cfg.sim = cfg.sim.with_planted_quarantine_bug(true);
    cfg
}

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "plan"))
        .collect();
    files.sort();
    files
}

/// Every corpus reproducer must replay clean on the honest engine, with
/// the full oracle set armed.
#[test]
fn corpus_replays_clean_on_the_honest_engine() {
    let files = corpus_files();
    assert!(!files.is_empty(), "the seeded corpus must not be empty");
    let cluster = cluster();
    let topology = split_topology();
    let scheduler = RStormScheduler::new();
    let cfg = honest_cfg();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let repro =
            FuzzReproducer::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            check_fault_plan(&cluster, &topology, &scheduler, &cfg, &repro.plan),
            None,
            "{}: corpus reproducer trips an oracle on the honest engine",
            path.display()
        );
    }
}

/// The corpus files themselves stay parseable and carry the headers the
/// fuzzer wrote — a malformed entry would otherwise only fail at the
/// point someone tries to debug with it.
#[test]
fn corpus_files_round_trip_through_the_text_codec() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("corpus file is readable");
        let repro =
            FuzzReproducer::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let round = FuzzReproducer::from_text(&repro.to_text())
            .unwrap_or_else(|e| panic!("{}: re-parse: {e}", path.display()));
        assert_eq!(repro.oracle, round.oracle, "{}", path.display());
        assert_eq!(repro.plan, round.plan, "{}", path.display());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The shrinker's contract, over arbitrary campaign seeds: whatever
    /// a planted-bug campaign finds, both the original plan and its
    /// shrunk reproducer trip the oracle the verdict recorded — the
    /// shrinker never wanders onto a different failure.
    #[test]
    fn shrunk_reproducers_trip_the_same_oracle_as_their_parents(seed in 0u64..1 << 32) {
        let cluster = cluster();
        let topology = split_topology();
        let scheduler = RStormScheduler::new();
        let cfg = planted_cfg(3, seed);
        let out = run_fuzz_campaign(&cluster, &topology, &scheduler, &cfg, 2);
        for repro in &out.reproducers {
            prop_assert!(!repro.plan.events().is_empty(), "shrunk plan went empty");
            prop_assert!(
                repro.plan.events().len() <= repro.original.events().len(),
                "shrinking grew the plan"
            );
            let parent = check_fault_plan(&cluster, &topology, &scheduler, &cfg, &repro.original);
            prop_assert_eq!(
                parent.as_ref(),
                Some(&repro.oracle),
                "original plan no longer trips the recorded oracle"
            );
            let shrunk = check_fault_plan(&cluster, &topology, &scheduler, &cfg, &repro.plan);
            prop_assert_eq!(
                shrunk.as_ref(),
                Some(&repro.oracle),
                "shrunk plan trips a different oracle than its parent"
            );
        }
    }
}

/// `tests/fuzz_corpus/corpus.topology` and `corpus.cluster`, the specs
/// `rstorm chaos --plan` replays the corpus against, describe exactly
/// the workload above.
#[test]
fn committed_specs_describe_the_corpus_workload() {
    use rstorm::spec::{cluster_to_spec, parse_cluster, parse_topology, topology_to_spec};
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus");
    let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
    let topology = parse_topology(&read("corpus.topology")).unwrap();
    assert_eq!(
        topology_to_spec(&topology),
        topology_to_spec(&split_topology())
    );
    let parsed = parse_cluster(&read("corpus.cluster")).unwrap();
    assert_eq!(cluster_to_spec(&parsed), cluster_to_spec(&cluster()));
}
