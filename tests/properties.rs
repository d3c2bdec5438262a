//! Property-based tests (proptest) over randomly generated topologies and
//! clusters: the invariants the R-Storm paper promises must hold for
//! *every* input, not just the bundled workloads.

use proptest::prelude::*;
use rstorm::cluster::config::StormConfig;
use rstorm::cluster::NodeId;
use rstorm::prelude::*;
use rstorm::scheduler::rstorm::node_selection::NodeSelector;
use rstorm::scheduler::rstorm::task_selection;
use rstorm::scheduler::UndoLog;
use rstorm::topology::{bfs_component_order, ResourceRequest, TopologyId};

// ---------- generators ----------------------------------------------------

#[derive(Debug, Clone)]
struct ComponentSpec {
    parallelism: u32,
    cpu: f64,
    mem: f64,
    /// Which earlier components this one subscribes to (index offsets).
    inputs: Vec<usize>,
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    // Component 0 is always a spout; each later component subscribes to
    // at least one earlier component, forming a connected DAG.
    let spec = (
        1u32..=4,
        1.0f64..80.0,
        16.0f64..512.0,
        proptest::collection::vec(0usize..8, 1..3),
    );
    proptest::collection::vec(spec, 2..7).prop_map(|raw| {
        let specs: Vec<ComponentSpec> = raw
            .into_iter()
            .map(|(parallelism, cpu, mem, inputs)| ComponentSpec {
                parallelism,
                cpu,
                mem,
                inputs,
            })
            .collect();
        let mut b = TopologyBuilder::new("prop");
        b.set_spout("c0", specs[0].parallelism)
            .set_cpu_load(specs[0].cpu)
            .set_memory_load(specs[0].mem);
        for (i, s) in specs.iter().enumerate().skip(1) {
            let mut bolt = b.set_bolt(format!("c{i}"), s.parallelism);
            let mut subscribed = std::collections::BTreeSet::new();
            for raw in &s.inputs {
                subscribed.insert(raw % i);
            }
            for from in subscribed {
                bolt.shuffle_grouping(format!("c{from}"));
            }
            bolt.set_cpu_load(s.cpu).set_memory_load(s.mem);
        }
        b.build()
            .expect("generated topologies are structurally valid")
    })
}

fn arb_cluster() -> impl Strategy<Value = Cluster> {
    (
        1u32..=3,
        1u32..=4,
        100.0f64..400.0,
        1024.0f64..8192.0,
        1u16..=4,
    )
        .prop_map(|(racks, nodes, cpu, mem, slots)| {
            ClusterBuilder::new()
                .homogeneous_racks(racks, nodes, ResourceCapacity::new(cpu, mem, 100.0), slots)
                .build()
                .expect("generated clusters are valid")
        })
}

// ---------- scheduling invariants -----------------------------------------

proptest! {
    /// The paper's property 2: "no hard resource constraints is violated"
    /// — whenever R-Storm produces a schedule, it is completely clean.
    #[test]
    fn rstorm_success_implies_clean_plan(
        topology in arb_topology(),
        cluster in arb_cluster(),
    ) {
        let mut state = GlobalState::new(&cluster);
        if let Ok(assignment) =
            RStormScheduler::new().schedule(&topology, &cluster, &mut state)
        {
            prop_assert_eq!(assignment.len() as u32, topology.total_tasks());
            let violations = verify_plan(state.plan(), &[&topology], &cluster);
            prop_assert!(violations.is_empty(), "{:?}", violations);
            for (node, remaining) in state.iter_remaining() {
                prop_assert!(
                    remaining.memory_mb >= -1e-9,
                    "node {} over-committed: {} MB",
                    node,
                    remaining.memory_mb
                );
            }
        }
    }

    /// When R-Storm refuses a topology, the refusal is honest: the
    /// reported demand really exceeds the best remaining node.
    #[test]
    fn rstorm_failure_is_justified(
        topology in arb_topology(),
        cluster in arb_cluster(),
    ) {
        let mut state = GlobalState::new(&cluster);
        match RStormScheduler::new().schedule(&topology, &cluster, &mut state) {
            Err(ScheduleError::InsufficientMemory { needed_mb, best_available_mb, .. }) => {
                prop_assert!(needed_mb > best_available_mb);
            }
            Err(ScheduleError::NoAliveNodes) => {
                prop_assert_eq!(cluster.alive_nodes().count(), 0);
            }
            _ => {}
        }
    }

    /// Scheduling is a pure function of its inputs.
    #[test]
    fn rstorm_is_deterministic(
        topology in arb_topology(),
        cluster in arb_cluster(),
    ) {
        let r1 = RStormScheduler::new()
            .schedule(&topology, &cluster, &mut GlobalState::new(&cluster));
        let r2 = RStormScheduler::new()
            .schedule(&topology, &cluster, &mut GlobalState::new(&cluster));
        prop_assert_eq!(r1.is_ok(), r2.is_ok());
        if let (Ok(a1), Ok(a2)) = (r1, r2) {
            prop_assert_eq!(a1, a2);
        }
    }

    /// The even scheduler always places everything, spreads across all
    /// nodes when slots allow, and never leaves a slot hosting wildly
    /// more tasks than another (round-robin balance).
    #[test]
    fn even_scheduler_places_and_balances(
        topology in arb_topology(),
        cluster in arb_cluster(),
    ) {
        let mut state = GlobalState::new(&cluster);
        let assignment = EvenScheduler::new()
            .schedule(&topology, &cluster, &mut state)
            .expect("even scheduling never fails on a live cluster");
        prop_assert_eq!(assignment.len() as u32, topology.total_tasks());

        let slots: usize = cluster.alive_slots().count();
        let tasks = topology.total_tasks() as usize;
        let per_node: Vec<usize> = cluster
            .alive_nodes()
            .map(|n| assignment.tasks_on_node(n.id().as_str()).len())
            .collect();
        let max = per_node.iter().copied().max().unwrap_or(0);
        let min = per_node.iter().copied().min().unwrap_or(0);
        // Round-robin over node-interleaved slots: per-node counts differ
        // by at most ceil(slots_per_node) across a full wrap.
        let slots_per_node = slots / cluster.alive_nodes().count();
        prop_assert!(
            max - min <= slots_per_node.max(1) + tasks / slots.max(1),
            "imbalance: {:?}",
            per_node
        );
    }
}

// ---------- ordering invariants --------------------------------------------

proptest! {
    /// Algorithm 2: the BFS component order visits every component
    /// exactly once, starting with a spout.
    #[test]
    fn bfs_order_is_a_permutation(topology in arb_topology()) {
        let order = bfs_component_order(&topology);
        prop_assert_eq!(order.len(), topology.components().len());
        let unique: std::collections::BTreeSet<_> =
            order.iter().map(|c| c.as_str().to_owned()).collect();
        prop_assert_eq!(unique.len(), order.len());
        prop_assert!(topology.component(order[0].as_str()).unwrap().is_spout());
    }

    /// Algorithm 3: the task ordering contains every task exactly once,
    /// whatever the traversal strategy.
    #[test]
    fn task_ordering_is_a_permutation(
        topology in arb_topology(),
        strategy in prop_oneof![
            Just(TraversalOrder::Bfs),
            Just(TraversalOrder::Dfs),
            Just(TraversalOrder::Declaration),
        ],
    ) {
        let task_set = topology.task_set();
        let order = task_selection::task_ordering(&topology, &task_set, strategy);
        prop_assert_eq!(order.len(), task_set.len());
        let mut ids: Vec<u32> = order.iter().map(|t| t.as_u32()).collect();
        ids.sort_unstable();
        let expected: Vec<u32> = (0..task_set.len() as u32).collect();
        prop_assert_eq!(ids, expected);
    }
}

// ---------- metric and model invariants -------------------------------------

proptest! {
    /// Summary statistics stay within their algebraic bounds.
    #[test]
    fn summary_bounds(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(values.iter().copied());
        prop_assert_eq!(s.count, values.len());
        prop_assert!(s.min <= s.mean + 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.stddev >= 0.0);
        prop_assert!(s.stddev <= (s.max - s.min) + 1e-9);
    }

    /// Windowed counters conserve events.
    #[test]
    fn windowed_counter_conserves(
        events in proptest::collection::vec((0.0f64..1e5, 1u64..100), 0..100),
    ) {
        let mut c = rstorm::metrics::WindowedCounter::new(10_000.0);
        let mut total = 0u64;
        for (t, n) in &events {
            c.record(*t, *n);
            total += n;
        }
        prop_assert_eq!(c.total(), total);
        prop_assert_eq!(c.window_counts().iter().sum::<u64>(), total);
    }

    /// Resource arithmetic is component-wise and order-independent.
    #[test]
    fn resource_request_algebra(
        a in (0.0f64..1e3, 0.0f64..1e4, 0.0f64..1e2),
        b in (0.0f64..1e3, 0.0f64..1e4, 0.0f64..1e2),
        k in 0.0f64..10.0,
    ) {
        let ra = ResourceRequest::new(a.0, a.1, a.2);
        let rb = ResourceRequest::new(b.0, b.1, b.2);
        prop_assert_eq!(ra.saturating_add(&rb), rb.saturating_add(&ra));
        let scaled = ra.scaled(k);
        prop_assert!((scaled.cpu_points - ra.cpu_points * k).abs() < 1e-9);
        prop_assert!((scaled.memory_mb - ra.memory_mb * k).abs() < 1e-9);
    }

    /// The storm.yaml subset round-trips through its own serializer.
    #[test]
    fn storm_config_roundtrip(
        mem in 1.0f64..1e6,
        cpu in 1.0f64..1e4,
        ports in proptest::collection::vec(1024u16..65535, 1..6),
    ) {
        let text = format!(
            "supervisor.memory.capacity.mb: {mem:?}\n\
             supervisor.cpu.capacity: {cpu:?}\n\
             supervisor.slots.ports: [{}]\n\
             storm.scheduler: \"rstorm\"\n",
            ports.iter().map(u16::to_string).collect::<Vec<_>>().join(", ")
        );
        let parsed = StormConfig::parse(&text).unwrap();
        let reparsed = StormConfig::parse(&parsed.to_yaml()).unwrap();
        prop_assert_eq!(&parsed, &reparsed);
        prop_assert_eq!(parsed.get_f64("supervisor.memory.capacity.mb"), Some(mem));
        prop_assert_eq!(parsed.slot_ports(), ports);
    }
}

// ---------- optimality gap (fewer, heavier cases) ---------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On instances small enough for exact branch-and-bound, the greedy
    /// R-Storm heuristic must never beat the optimum (sanity of the
    /// solver) and the optimum must be a valid plan.
    #[test]
    fn exhaustive_lower_bounds_greedy(
        p0 in 1u32..=2, p1 in 1u32..=2, p2 in 1u32..=2,
        cpu in 5.0f64..60.0,
        mem in 32.0f64..700.0,
    ) {
        use rstorm::scheduler::schedulers::{placement_cost, ExhaustiveScheduler};
        let mut b = TopologyBuilder::new("opt");
        b.set_spout("a", p0).set_cpu_load(cpu).set_memory_load(mem);
        b.set_bolt("b", p1).shuffle_grouping("a").set_cpu_load(cpu).set_memory_load(mem);
        b.set_bolt("c", p2).shuffle_grouping("b").set_cpu_load(cpu).set_memory_load(mem);
        let topology = b.build().unwrap();
        let cluster = ClusterBuilder::new()
            .homogeneous_racks(2, 2, ResourceCapacity::emulab_node(), 4)
            .build()
            .unwrap();

        let optimal = ExhaustiveScheduler::new()
            .schedule(&topology, &cluster, &mut GlobalState::new(&cluster));
        let greedy = RStormScheduler::new()
            .schedule(&topology, &cluster, &mut GlobalState::new(&cluster));
        if let (Ok(optimal), Ok(greedy)) = (optimal, greedy) {
            let c_opt = placement_cost(&topology, &cluster, &optimal);
            let c_greedy = placement_cost(&topology, &cluster, &greedy);
            prop_assert!(
                c_opt <= c_greedy + 1e-9,
                "optimum {} must not exceed greedy {}",
                c_opt,
                c_greedy
            );
            // And the optimum is itself a clean plan.
            let mut state = GlobalState::new(&cluster);
            let a = ExhaustiveScheduler::new()
                .schedule(&topology, &cluster, &mut state)
                .unwrap();
            prop_assert_eq!(a.len() as u32, topology.total_tasks());
            prop_assert!(verify_plan(state.plan(), &[&topology], &cluster).is_empty());
        }
    }
}

// ---------- indexed/reference scheduler parity ------------------------------

/// Everything a scheduler invocation may observably change, with floats
/// captured as raw bits: remaining resources per node (in id order), the
/// plan, and every slot's occupancy. Map iteration order (which is not
/// observable behaviour) is deliberately excluded.
type ObservableBits = (Vec<(String, [u64; 3])>, String, Vec<usize>);

fn observable_bits(state: &GlobalState, cluster: &Cluster) -> ObservableBits {
    let remaining = state
        .iter_remaining()
        .map(|(n, r)| {
            (
                n.as_str().to_owned(),
                [
                    r.cpu_points.to_bits(),
                    r.memory_mb.to_bits(),
                    r.bandwidth.to_bits(),
                ],
            )
        })
        .collect();
    let plan = format!("{:?}", state.plan());
    let occupancy = cluster
        .nodes()
        .iter()
        .flat_map(|n| n.slots().iter())
        .map(|s| state.slot_occupancy(s))
        .collect();
    (remaining, plan, occupancy)
}

proptest! {
    /// The tentpole's correctness bar: the indexed fast path
    /// ([`RStormScheduler`]: dense scan, rack aggregates, undo-log
    /// atomicity) must be **byte-identical** to the pre-index
    /// implementation ([`ReferenceRStormScheduler`]: string-keyed scan,
    /// clone-based atomicity) — same assignments, same errors, same
    /// remaining-resource bits — on arbitrary inputs.
    #[test]
    fn indexed_scheduler_matches_reference(
        topology in arb_topology(),
        cluster in arb_cluster(),
    ) {
        let mut fast_state = GlobalState::new(&cluster);
        let mut ref_state = GlobalState::new(&cluster);
        let fast = RStormScheduler::new().schedule(&topology, &cluster, &mut fast_state);
        let reference =
            ReferenceRStormScheduler::new().schedule(&topology, &cluster, &mut ref_state);
        match (fast, reference) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            diverged => prop_assert!(false, "paths diverged: {:?}", diverged),
        }
        prop_assert_eq!(
            observable_bits(&fast_state, &cluster),
            observable_bits(&ref_state, &cluster)
        );
    }

    /// Undo-log atomicity: a rejected topology leaves the state
    /// bit-identical to before the attempt — including when the rejection
    /// happens mid-topology on a cluster already carrying reservations
    /// from an earlier success.
    #[test]
    fn failed_schedule_leaves_state_bit_identical(
        warmup in arb_topology(),
        heavy_mem in 1500.0f64..6000.0,
        cluster in arb_cluster(),
    ) {
        let scheduler = RStormScheduler::new();
        let mut state = GlobalState::new(&cluster);
        // Best-effort warmup so the rollback must preserve non-trivial
        // existing bookkeeping, not just return to the pristine state.
        let _ = scheduler.schedule(&warmup, &cluster, &mut state);

        // A topology whose later tasks outgrow every generated node
        // (node memory < 8192; total demand far above), so rejection
        // usually happens after some tasks were already placed.
        let mut b = TopologyBuilder::new("heavy");
        b.set_spout("light", 2).set_cpu_load(1.0).set_memory_load(8.0);
        b.set_bolt("heavy", 4)
            .shuffle_grouping("light")
            .set_cpu_load(1.0)
            .set_memory_load(heavy_mem);
        let heavy = b.build().unwrap();

        let before = observable_bits(&state, &cluster);
        if let Err(err) = scheduler.schedule(&heavy, &cluster, &mut state) {
            prop_assert!(matches!(err, ScheduleError::InsufficientMemory { .. }));
            prop_assert_eq!(observable_bits(&state, &cluster), before);
            prop_assert!(!state.is_scheduled("heavy"));
        }
    }
}

// ---------- node-selection memo vs scan oracle ------------------------------

/// Random clusters for the selector differential: heterogeneous nodes,
/// 1–4 racks, some nodes dead from the start, and racks either contiguous
/// in node-id order or interleaved (`n00` in r0, `n01` in r1, ...).
fn arb_selection_cluster() -> impl Strategy<Value = Cluster> {
    (
        0u32..2,
        1usize..=4,
        proptest::collection::vec((50u32..200, 512u32..4096, 0u32..6), 1..21),
    )
        .prop_map(|(fragmented, racks, nodes)| {
            let mut b = ClusterBuilder::new();
            let mut dead = Vec::new();
            for (i, &(cpu, mem, life)) in nodes.iter().enumerate() {
                let (name, rack) = if fragmented == 1 {
                    (format!("n{i:02}"), i % racks)
                } else {
                    let rack = i * racks / nodes.len();
                    (format!("r{rack}-n{i:02}"), rack)
                };
                let capacity = ResourceCapacity::new(f64::from(cpu), f64::from(mem), 100.0);
                b = b.add_node(name.as_str(), format!("r{rack}"), capacity, 2);
                if life == 0 {
                    dead.push(name);
                }
            }
            let mut cluster = b.build().expect("generated clusters are valid");
            for name in &dead {
                cluster.kill_node(name);
            }
            cluster
        })
}

fn same_pick(fast: &Result<NodeId, f64>, scan: &Result<NodeId, f64>) -> Result<(), TestCaseError> {
    match (fast, scan) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
        (Err(a), Err(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
        diverged => prop_assert!(false, "selectors diverged: {:?}", diverged),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The per-rack memo of the indexed selector must pick exactly what
    /// the scan oracle picks, step by step, while the state changes under
    /// it through every mutation path: reservations on the pick and
    /// elsewhere, single releases, partial undo-log rollbacks, topology
    /// release, node failure and recovery, and selections against a
    /// mutated clone. Requests repeat often (memo hits) and change
    /// sometimes (memo resets); some are infeasible.
    #[test]
    fn memoised_selection_matches_scan_oracle(
        cluster in arb_selection_cluster(),
        weights_choice in 0u32..3,
        pool in proptest::collection::vec((1u32..80, 16u32..2500), 3..4),
        steps in proptest::collection::vec((0u32..12, 0u32..9, 0usize..64), 1..60),
    ) {
        let weights = match weights_choice {
            0 => SoftConstraintWeights::default(),
            1 => SoftConstraintWeights::default().without_network(),
            _ => SoftConstraintWeights::new(2.0, 0.5, 3.0),
        };
        let mut pool: Vec<ResourceRequest> = pool
            .iter()
            .map(|&(cpu, mem)| ResourceRequest::new(f64::from(cpu), f64::from(mem), 0.0))
            .collect();
        pool.push(ResourceRequest::new(1.0, 10_000.0, 0.0)); // never fits
        let names: Vec<NodeId> = cluster.nodes().iter().map(|n| n.id().clone()).collect();
        let t = TopologyId::new("t");

        let mut state = GlobalState::new(&cluster);
        let mut memo = NodeSelector::new(&cluster, &weights);
        let mut scan = NodeSelector::new_scan_only(&cluster, &weights);
        // Reservations of `t` since the last checkpoint are in `log`;
        // `held` shadows every live reservation so releases never target
        // a node `t` holds nothing on.
        let mut log = UndoLog::new();
        let mut held: Vec<(NodeId, ResourceRequest)> = Vec::new();
        let mut held_at_checkpoint = held.clone();
        let mut request = pool[0];

        for &(op, req_choice, pick) in &steps {
            // Mostly repeat the previous request, sometimes switch.
            if req_choice >= 5 {
                request = pool[req_choice as usize - 5];
            }
            let from_memo = memo.select(&state, &request);
            let from_scan = scan.select(&state, &request);
            same_pick(&from_memo, &from_scan)?;
            prop_assert_eq!(memo.ref_node(), scan.ref_node());

            let other = &names[pick % names.len()];
            match op {
                0..=3 => {
                    if let Ok(node) = &from_memo {
                        state.reserve_logged(&t, node, &request, &mut log).unwrap();
                        held.push((node.clone(), request));
                    }
                }
                4 => {
                    if state.reserve_logged(&t, other, &request, &mut log).is_ok() {
                        held.push((other.clone(), request));
                    }
                }
                5 => {
                    if !held.is_empty() {
                        let (node, r) = held.remove(pick % held.len());
                        // A dead node refuses the release and keeps it.
                        if state.unreserve_logged(&t, &node, &r, &mut log).is_err() {
                            held.push((node, r));
                        }
                    }
                }
                6 => {
                    state.rollback(std::mem::take(&mut log));
                    held = held_at_checkpoint.clone();
                }
                7 => {
                    state.release_topology(t.as_str());
                    log = UndoLog::new();
                    held.clear();
                    held_at_checkpoint.clear();
                }
                8 => {
                    state.handle_node_failure(other.as_str());
                }
                9 => {
                    state.handle_node_recovery(other.as_str());
                }
                10 => {
                    // Select against a clone that diverged from `state`:
                    // both share stamps up to the fork, not after it.
                    let mut fork = state.clone();
                    if let Ok(node) = &from_memo {
                        fork.reserve(&t, node, &request).unwrap();
                    }
                    same_pick(&memo.select(&fork, &request), &scan.select(&fork, &request))?;
                }
                _ => {
                    log = UndoLog::new();
                    held_at_checkpoint = held.clone();
                }
            }
        }
    }
}

// ---------- failure/recovery state parity -----------------------------------

/// Observables masked to the *alive* part of the cluster: remaining
/// resources and slot occupancy of alive nodes (float bits), plus the
/// whole plan. Dead nodes are out of the schedulable pool, so their
/// stale bookkeeping is not observable behaviour.
type AliveBits = (Vec<(String, [u64; 3])>, String, Vec<usize>);

fn alive_observable_bits(state: &GlobalState, cluster: &Cluster) -> AliveBits {
    let remaining = state
        .iter_remaining()
        .filter(|(n, _)| cluster.is_alive(n.as_str()))
        .map(|(n, r)| {
            (
                n.as_str().to_owned(),
                [
                    r.cpu_points.to_bits(),
                    r.memory_mb.to_bits(),
                    r.bandwidth.to_bits(),
                ],
            )
        })
        .collect();
    let plan = format!("{:?}", state.plan());
    let occupancy = cluster
        .alive_nodes()
        .flat_map(|n| n.slots().iter())
        .map(|s| state.slot_occupancy(s))
        .collect();
    (remaining, plan, occupancy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The recovery tentpole's bookkeeping bar: after ANY interleaving of
    /// node failures and recoveries, the incrementally maintained
    /// [`GlobalState`] must be bit-identical (on alive-masked
    /// observables) to one rebuilt from scratch out of the surviving
    /// cluster and the same plan. Integer resource loads keep the
    /// reserve/release float arithmetic exactly representable, so "bit
    /// identical" is a fair bar.
    #[test]
    fn incremental_failure_recovery_matches_rebuild(
        spout_par in 1u32..=3,
        bolt_par in 1u32..=4,
        cpu_units in 1u32..40,
        mem_units in 1u32..48,
        ops in proptest::collection::vec((0usize..6, 0u32..3), 1..10),
    ) {
        let mut b = TopologyBuilder::new("fr");
        b.set_spout("s", spout_par)
            .set_cpu_load(f64::from(cpu_units))
            .set_memory_load(f64::from(mem_units * 16));
        b.set_bolt("k", bolt_par)
            .shuffle_grouping("s")
            .set_cpu_load(f64::from(cpu_units))
            .set_memory_load(f64::from(mem_units * 16));
        let topology = b.build().unwrap();

        let mut cluster = ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::new(400.0, 4096.0, 100.0), 4)
            .build()
            .unwrap();
        let node_names: Vec<String> = cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .collect();

        let mut state = GlobalState::new(&cluster);
        let Ok(_) = RStormScheduler::new().schedule(&topology, &cluster, &mut state) else {
            return Ok(());
        };

        for &(pick, op) in &ops {
            let node = &node_names[pick % node_names.len()];
            // Two-thirds kills, one-third recoveries: failure churn with
            // occasional rejoins, in arbitrary order.
            if op > 0 {
                cluster.kill_node(node);
                let _displaced = state.handle_node_failure(node);
            } else {
                cluster.revive_node(node);
                state.handle_node_recovery(node);
            }
        }

        let rebuilt = GlobalState::rebuild(&cluster, &[&topology], state.plan());
        prop_assert_eq!(
            alive_observable_bits(&state, &cluster),
            alive_observable_bits(&rebuilt, &cluster)
        );
    }
}

// ---------- simulator conservation (fewer, heavier cases) -------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tuple conservation under simulation: completions never exceed
    /// emissions, sink counts never exceed processing counts, and a
    /// feasible R-Storm schedule always makes progress.
    #[test]
    fn simulation_conserves_tuples(
        topology in arb_topology(),
        seed in 0u64..1000,
    ) {
        let cluster = ClusterBuilder::new()
            .homogeneous_racks(2, 3, ResourceCapacity::new(400.0, 8192.0, 100.0), 4)
            .build()
            .unwrap();
        let mut state = GlobalState::new(&cluster);
        let Ok(assignment) =
            RStormScheduler::new().schedule(&topology, &cluster, &mut state)
        else {
            return Ok(());
        };
        let mut config = SimConfig::quick().with_seed(seed);
        config.sim_time_ms = 20_000.0;
        let mut sim = Simulation::new(cluster, config);
        sim.add_topology(&topology, &assignment);
        let report = sim.run();
        let t = &report.totals;
        prop_assert!(t.roots_completed + t.roots_timed_out <= t.spout_batches);
        prop_assert!(t.tuples_completed <= t.tuples_processed.max(t.spout_batches * 1000));
        prop_assert!(t.batches_dropped <= t.batches_delivered);
        prop_assert!(t.spout_batches > 0, "spouts must make progress");
    }

    /// The adaptive plane's zero-drift bar, as a property: observations
    /// that match the declarations yield a clean drift report, an empty
    /// migration plan, an untouched scheduling state — and an empty plan
    /// handed to the simulator keeps the run bit-identical to one that
    /// never heard of the rebalance plane.
    #[test]
    fn zero_drift_keeps_everything_bit_identical(
        topology in arb_topology(),
        seed in 0u64..1000,
    ) {
        let cluster = std::sync::Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::new(400.0, 8192.0, 100.0), 4)
                .build()
                .unwrap(),
        );
        let mut state = GlobalState::new(&cluster);
        let Ok(assignment) =
            RStormScheduler::new().schedule(&topology, &cluster, &mut state)
        else {
            return Ok(());
        };

        // A refiner that observed exactly the declarations.
        let mut refiner = ProfileRefiner::new(1.0);
        for c in topology.components() {
            let declared = c.resources().cpu_points;
            refiner.observe("prop", c.id().as_str(), declared, declared);
        }
        let drift = DriftDetector::default().detect(&topology, &refiner, &[]);
        prop_assert!(drift.is_clean());

        let before = observable_bits(&state, &cluster);
        let plan = DeltaScheduler::new()
            .plan(
                &topology,
                &cluster,
                &mut state,
                &drift,
                &refiner,
                &std::collections::BTreeSet::new(),
            )
            .unwrap();
        prop_assert!(plan.is_empty());
        prop_assert_eq!(observable_bits(&state, &cluster), before);

        let config = SimConfig::quick().with_sim_time_ms(8_000.0).with_seed(seed);
        let mut plain = Simulation::new(std::sync::Arc::clone(&cluster), config.clone());
        plain.add_topology(&topology, &assignment);
        let mut adaptive = Simulation::new(std::sync::Arc::clone(&cluster), config);
        adaptive.add_topology(&topology, &assignment);
        adaptive.schedule_migration(&plan, 4_000.0, 1_000.0);
        let plain_report = plain.run();
        let adaptive_report = adaptive.run();
        prop_assert_eq!(&plain_report, &adaptive_report);
        prop_assert_eq!(plain_report.debug.events, adaptive_report.debug.events);
    }

    /// The simulator tentpole's correctness bar, as a property: on
    /// arbitrary feasible topologies the dense-id fast engine and the
    /// string-keyed reference engine must produce **identical** reports —
    /// same totals, same per-window counts, same latency bits.
    #[test]
    fn fast_simulation_matches_reference(
        topology in arb_topology(),
        seed in 0u64..1000,
    ) {
        let cluster = std::sync::Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::new(400.0, 8192.0, 100.0), 4)
                .build()
                .unwrap(),
        );
        let Ok(assignment) = RStormScheduler::new().schedule(
            &topology,
            &cluster,
            &mut GlobalState::new(&cluster),
        ) else {
            return Ok(());
        };
        let config = SimConfig::quick().with_sim_time_ms(8_000.0).with_seed(seed);
        let mut fast = Simulation::new(std::sync::Arc::clone(&cluster), config.clone());
        fast.add_topology(&topology, &assignment);
        let mut reference =
            ReferenceSimulation::new(std::sync::Arc::clone(&cluster), config);
        reference.add_topology(&topology, &assignment);
        let fast_report = fast.run();
        let reference_report = reference.run();
        prop_assert_eq!(&fast_report, &reference_report);
        prop_assert_eq!(fast_report.debug.events, reference_report.debug.events);
        prop_assert_eq!(fast_report.to_json(), reference_report.to_json());
    }

    /// The network-plane gate's correctness bar, as a property: leaving
    /// `network_model` at its default and setting it to `Legacy`
    /// explicitly must be the same engine bit for bit — same report,
    /// same JSON, same debug event count — across random migration plans
    /// *and* random fault plans (crashes, partitions, degradations), the
    /// transitions where a half-gated fair-plane branch would first leak.
    #[test]
    fn legacy_network_model_is_bit_identical_to_the_default_engine(
        topology in arb_topology(),
        raw_moves in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        fault_atoms in proptest::collection::vec(
            (0u8..4, 1u64..10, 1u64..8, 0usize..64),
            0..4,
        ),
        seed in 0u64..1000,
    ) {
        let cluster = std::sync::Arc::new(
            ClusterBuilder::new()
                .homogeneous_racks(2, 3, ResourceCapacity::new(400.0, 8192.0, 100.0), 4)
                .build()
                .unwrap(),
        );
        let Ok(assignment) = RStormScheduler::new().schedule(
            &topology,
            &cluster,
            &mut GlobalState::new(&cluster),
        ) else {
            return Ok(());
        };
        let tasks: Vec<_> = assignment.iter().map(|(t, _)| t).collect();
        let nodes: Vec<String> = cluster
            .nodes()
            .iter()
            .map(|n| n.id().as_str().to_owned())
            .collect();
        let racks: Vec<String> = cluster
            .racks()
            .iter()
            .map(|r| r.as_str().to_owned())
            .collect();

        // A random scatter of task relocations, as in the routing property.
        let mut slots: std::collections::BTreeMap<_, _> =
            assignment.iter().map(|(t, s)| (t, s.clone())).collect();
        let mut moves = Vec::new();
        for &(t, n) in &raw_moves {
            let task = tasks[t % tasks.len()];
            let node = &nodes[n % nodes.len()];
            let old = slots[&task].node.clone();
            slots.insert(task, WorkerSlot::new(node.as_str(), 6700));
            moves.push(MigrationMove {
                task,
                component: "c".to_owned(),
                from: old,
                to: rstorm::cluster::NodeId::new(node.as_str()),
            });
        }
        let plan = MigrationPlan {
            topology: topology.id().clone(),
            moves,
            updated: Assignment::new(topology.id().clone(), slots),
        };

        // A random fault plan on the 500 ms grid inside the 8 s horizon.
        let mut faults = FaultPlan::new();
        for &(kind, at_slot, len_slot, pick) in &fault_atoms {
            let at = 500.0 * at_slot as f64;
            let len = 500.0 * len_slot as f64;
            match kind {
                0 => {
                    let node = &nodes[pick % nodes.len()];
                    faults = faults.crash_node(at, node).recover_node(at + len, node);
                }
                1 => {
                    faults = faults.crash_node(at, &nodes[pick % nodes.len()]);
                }
                2 => {
                    faults = faults.partition_rack(at, at + len, &racks[pick % racks.len()]);
                }
                _ => {
                    faults = faults.degrade_links(at, at + len, 25.0);
                }
            }
        }

        let run = |explicit_legacy: bool| {
            let mut config = SimConfig::quick().with_sim_time_ms(8_000.0).with_seed(seed);
            if explicit_legacy {
                config = config.with_network_model(NetworkModel::Legacy);
            }
            let mut sim = Simulation::new(std::sync::Arc::clone(&cluster), config);
            sim.add_topology(&topology, &assignment);
            sim.schedule_migration(&plan, 3_000.0, 500.0);
            sim.set_fault_plan(faults.clone());
            sim.run()
        };
        let default_report = run(false);
        let legacy_report = run(true);
        prop_assert_eq!(&default_report, &legacy_report);
        prop_assert_eq!(default_report.to_json(), legacy_report.to_json());
        prop_assert_eq!(default_report.debug.events, legacy_report.debug.events);
    }
}
