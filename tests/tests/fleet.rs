//! Fleet-tier equivalence and determinism.
//!
//! The fleet routes requests into instances dynamically
//! ([`serving::Instance::admit`]) instead of pre-loading the trace, and
//! steps instances in bounded slices instead of one unbounded loop.
//! Neither may change a single scheduling decision: a 1-instance fleet
//! must reproduce the bare [`Driver::run`] report bit-for-bit for every
//! engine, healthy and crashing, and fleet reports must be bit-identical
//! across thread counts and merge-barrier interleavings.

use baselines::{ChunkedPrefill, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::SoloPredictor;
use fleet::{
    Fleet, HedgeConfig, HedgeStats, HolderIndex, PathClass, PrefixAffinity, ReplicationConfig,
    RoundRobin,
};
use gpusim::{ClusterSpec, GpuSim};
use kvcache::Block;
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use proptest::prelude::*;
use serving::{
    Driver, FaultKind, FaultPlan, LeaseTable, Report, Scheduler, SloSpec, WatchdogConfig,
};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, generate_fleet_stream, RequestSpec, WorkloadKind};

fn engine_names() -> [&'static str; 7] {
    [
        "muxwise",
        "chunked",
        "nanoflow",
        "loongserve",
        "sglang-pd",
        "windserve",
        "temporal",
    ]
}

fn build(name: &str) -> Box<dyn Scheduler> {
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama8b();
    let slo = SloSpec::llama8b();
    match name {
        "muxwise" => {
            let est = Estimators::profile(&model, &cluster, 8);
            Box::new(MuxWise::new(
                &model,
                &cluster,
                8,
                slo,
                est,
                MuxWiseConfig::default(),
            ))
        }
        "chunked" => Box::new(ChunkedPrefill::tuned(&model, &cluster, 8, slo)),
        "nanoflow" => Box::new(ChunkedPrefill::nanoflow(&model, &cluster, 8, slo)),
        "loongserve" => Box::new(LoongServe::new(&model, &cluster, 2, slo)),
        "sglang-pd" => Box::new(SglangPd::new(&model, &cluster, slo)),
        "windserve" => Box::new(WindServe::new(&model, &cluster, 8, slo)),
        "temporal" => {
            let par = Parallelism::tp(8, cluster.nvlink_gbs);
            Box::new(TemporalMux::new(
                &model,
                &cluster,
                8,
                slo,
                SoloPredictor::profile(&model, &cluster, &par, &[cluster.gpu.sm_count]),
            ))
        }
        other => panic!("unknown engine {other}"),
    }
}

/// The refactor_invariance golden workload: Conversation, 60 requests at
/// 2.5 req/s, seed 0xC0FFEE.
fn golden_trace() -> Vec<RequestSpec> {
    let mut rng = SimRng::seed_from(0xC0FFEE);
    generate(WorkloadKind::Conversation, 60, 2.5, &mut rng)
}

/// A mid-trace crash: GPU 2 fail-stops at t=5s for 4s, squarely inside
/// the golden trace's arrival span.
fn crash_plan() -> FaultPlan {
    FaultPlan::crash(2, SimTime::from_secs(5.0), SimDuration::from_secs(4.0))
}

fn bare_run(name: &str, plan: FaultPlan) -> Report {
    let mut engine = build(name);
    Driver::new(
        GpuSim::from_cluster(&ClusterSpec::dgx_a100()),
        golden_trace(),
        SloSpec::llama8b(),
    )
    .with_faults(plan)
    .with_watchdog(WatchdogConfig::default())
    .run(engine.as_mut())
}

fn one_instance_fleet_run(name: &str, plan: FaultPlan) -> Report {
    let mut fleet = Fleet::new();
    let driver = Driver::new(
        GpuSim::from_cluster(&ClusterSpec::dgx_a100()),
        Vec::new(),
        SloSpec::llama8b(),
    )
    .with_faults(plan)
    .with_watchdog(WatchdogConfig::default());
    fleet.push(driver, build(name), PathClass::SingleNode, name.to_string());
    let mut report = fleet.run(&golden_trace(), &mut RoundRobin::new());
    assert_eq!(report.reports.len(), 1);
    report.reports.pop().expect("one instance")
}

#[test]
fn one_instance_fleet_is_byte_identical_to_bare_driver_healthy() {
    for name in engine_names() {
        let bare = bare_run(name, FaultPlan::none());
        let routed = one_instance_fleet_run(name, FaultPlan::none());
        assert_eq!(
            bare, routed,
            "{name}: routed admission diverged from the bare driver"
        );
    }
}

#[test]
fn one_instance_fleet_is_byte_identical_to_bare_driver_under_crash() {
    for name in engine_names() {
        let bare = bare_run(name, crash_plan());
        let routed = one_instance_fleet_run(name, crash_plan());
        assert_eq!(
            bare, routed,
            "{name}: crash failover diverged through the fleet path"
        );
    }
}

/// A small mixed-path fleet: one colocated engine, two disaggregated.
/// `plan0` is instance 0's fault plan; an empty plan keeps the fleet's
/// fault-tolerance tier unarmed (no fail-stop horizon).
fn mixed_fleet_with(threads: usize, plan0: FaultPlan) -> Fleet {
    mixed_fleet_plans(threads, |i| {
        if i == 0 {
            plan0.clone()
        } else {
            FaultPlan::none()
        }
    })
}

/// The mixed-path fleet with a fault plan per member.
fn mixed_fleet_plans(threads: usize, plan: impl Fn(usize) -> FaultPlan) -> Fleet {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let mut fleet = Fleet::new().with_threads(threads);
    let members: [(&str, PathClass); 3] = [
        ("chunked", PathClass::SingleNode),
        ("sglang-pd", PathClass::Split),
        ("windserve", PathClass::Split),
    ];
    for (i, (name, class)) in members.into_iter().enumerate() {
        let driver = Driver::new(GpuSim::from_cluster(&cluster), Vec::new(), slo)
            .with_watchdog(WatchdogConfig::default())
            .with_faults(plan(i));
        fleet.push(driver, build(name), class, format!("{name}#{i}"));
    }
    fleet
}

fn mixed_fleet(threads: usize, crash_instance_0: bool) -> Fleet {
    let plan = if crash_instance_0 {
        FaultPlan::crash(0, SimTime::from_secs(2.0), SimDuration::from_secs(10.0))
    } else {
        FaultPlan::none()
    };
    mixed_fleet_with(threads, plan)
}

/// Instance 0's GPU 0 fail-stops permanently at t=2s: the member never
/// revives, so its crash victims can only finish via fleet failover.
fn perm_plan() -> FaultPlan {
    FaultPlan::single(
        FaultKind::GpuFailStopPermanent { gpu: 0 },
        SimTime::from_secs(2.0),
        SimTime::from_secs(1e9),
    )
}

/// A 30 s, 8× kernel-latency spike from t=1s: a gray window that
/// degrades the member without killing a GPU.
fn spike_plan() -> FaultPlan {
    FaultPlan::single(
        FaultKind::KernelLatencySpike {
            mult: 8.0,
            duration: SimDuration::from_secs(30.0),
        },
        SimTime::from_secs(1.0),
        SimTime::from_secs(31.0),
    )
}

/// The mixed fleet with every fault-tolerance tier armed: member 0
/// fail-stops permanently at 2 s, member 1 runs the gray spike, and
/// hot-prefix replication and hedged dispatch are on.
fn tiered_fleet(threads: usize) -> Fleet {
    mixed_fleet_plans(threads, |i| match i {
        0 => perm_plan(),
        1 => spike_plan(),
        _ => FaultPlan::none(),
    })
    .with_replication(ReplicationConfig {
        factor: 2,
        top_k: 4,
        min_hits: 2,
        sweep_every: 2,
    })
    .with_hedging(HedgeConfig {
        // Low enough that requests on the slow members get hedged.
        delay_threshold: SimDuration::from_secs(0.2),
        ..HedgeConfig::default()
    })
}

fn small_trace(seed: u64) -> Vec<RequestSpec> {
    let mut rng = SimRng::seed_from(seed);
    generate_fleet_stream(WorkloadKind::Conversation, 3, 2, 0.5, 5.0, &mut rng)
}

#[test]
fn crash_reroutes_are_deterministic_across_threads() {
    let trace = small_trace(0xFA11);
    let one = mixed_fleet(1, true).run(&trace, &mut RoundRobin::new());
    let four = mixed_fleet(4, true).run(&trace, &mut RoundRobin::new());
    assert_eq!(
        one, four,
        "crash-window fleet diverged across thread counts"
    );
    assert!(
        one.routing.rerouted_on_crash > 0,
        "the 10s outage should force at least one reroute"
    );
    assert_eq!(one.finished() + one.shed(), one.total());
    assert_eq!(one.leaked_leases(), 0);
}

#[test]
fn permanent_crash_closes_the_books_through_real_engines() {
    let trace = small_trace(0xDEAD);
    let one = mixed_fleet_with(1, perm_plan()).run(&trace, &mut PrefixAffinity::default());
    let four = mixed_fleet_with(4, perm_plan()).run(&trace, &mut PrefixAffinity::default());
    assert_eq!(one, four, "permanent-crash fleet diverged across threads");
    assert_eq!(
        one.finished() + one.shed(),
        one.total(),
        "a request fell between the crashed member and the fleet"
    );
    assert_eq!(one.leaked_leases(), 0, "crash drain leaked KV leases");
    assert!(
        one.health.ejections >= 1,
        "a permanent fail-stop must eject the member: {:?}",
        one.health
    );
    assert_eq!(
        one.failover.drained,
        one.failover.migrated + one.failover.gave_up,
        "drained victims must all be placed or given up: {:?}",
        one.failover
    );
}

/// A gray window (kernel latency spike, no dead GPU) on instance 0 with
/// hedging enabled, through real engines: the run must stay thread- and
/// interleaving-deterministic and the books must close with the
/// cancelled class included.
#[test]
fn gray_spike_hedging_closes_books_through_real_engines() {
    let trace = small_trace(0x6EA7);
    let run = |threads| {
        mixed_fleet_with(threads, spike_plan())
            .with_hedging(HedgeConfig::default())
            .run(&trace, &mut PrefixAffinity::default())
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four, "gray-spike hedging diverged across threads");
    assert!(
        one.health.gray_trips >= 1,
        "the spike must trip the gray breaker: {:?}",
        one.health
    );
    assert_eq!(
        one.finished() + one.shed() + one.cancelled(),
        one.total(),
        "a request fell between the winner and the cancelled loser"
    );
    assert_eq!(one.leaked_leases(), 0, "hedge cancel leaked KV leases");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Thread counts and merge-barrier interleavings are pure wall-clock
    /// knobs: the fleet report must not move by a bit — on a fault-free
    /// fleet, and on one with crash, gray spike, replication and hedging
    /// all armed (`tiered`), where skipped members and holder-index
    /// probes meet every tier's barrier source.
    #[test]
    fn fleet_reports_are_bit_identical_across_threads_and_interleavings(
        threads in 2usize..6,
        barrier_ms in 200u64..2_000,
        seed in 0u64..1_000,
        tiered in prop_oneof![Just(false), Just(true)],
    ) {
        let trace = small_trace(seed);
        let make = |threads| if tiered { tiered_fleet(threads) } else { mixed_fleet(threads, false) };
        let base = make(1).run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(
            base.finished() + base.shed() + base.cancelled(),
            base.total(),
            "the fleet books must close"
        );
        prop_assert_eq!(base.leaked_leases(), 0);
        let threaded = make(threads).run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(&base, &threaded, "thread count changed the fleet report");
        // Chop the timeline with no-op barriers (some coinciding with
        // arrivals) — instance stepping must be insensitive to how the
        // run is sliced.
        let step = SimDuration::from_secs(barrier_ms as f64 / 1e3);
        let barriers: Vec<SimTime> = (1..=60).map(|k| SimTime::ZERO + step * k as f64).collect();
        let chopped = make(threads).run_opts(&trace, &mut PrefixAffinity::default(), &barriers);
        prop_assert_eq!(&base, &chopped, "merge-barrier interleaving changed the fleet report");
    }

    /// Hedging configured but untriggerable (infinite delay threshold,
    /// no degraded trigger) on a fault-free fleet is a strict no-op:
    /// the gray tier never arms, so the report matches the hedging-free
    /// run byte for byte across thread counts and merge-barrier
    /// interleavings.
    #[test]
    fn untriggerable_hedging_replays_identically(
        threads in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        barrier_ms in 200u64..2_000,
        seed in 0u64..1_000,
    ) {
        let trace = small_trace(seed);
        let base = mixed_fleet(1, false).run(&trace, &mut PrefixAffinity::default());
        let hedged = mixed_fleet(threads, false)
            .with_hedging(HedgeConfig::untriggerable())
            .run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(&base, &hedged, "dormant hedging changed the fleet report");
        prop_assert_eq!(hedged.hedge, HedgeStats::default());
        let step = SimDuration::from_secs(barrier_ms as f64 / 1e3);
        let barriers: Vec<SimTime> = (1..=60).map(|k| SimTime::ZERO + step * k as f64).collect();
        let chopped = mixed_fleet(threads, false)
            .with_hedging(HedgeConfig::untriggerable())
            .run_opts(&trace, &mut PrefixAffinity::default(), &barriers);
        prop_assert_eq!(&base, &chopped, "dormant hedging changed the interleaved report");
    }

    /// With a mid-run permanent fail-stop the failover tier arms, the
    /// ejected member drains, and victims re-enter elsewhere — yet the
    /// books must still close (`finished + shed + cancelled == total`),
    /// no lease may leak, and the report must stay bit-identical across
    /// 1/2/4 threads and arbitrary merge-barrier interleavings, also
    /// with replication, hedging and a gray member on top (`tiered`).
    #[test]
    fn permanent_crash_failover_is_deterministic_and_leak_free(
        threads in prop_oneof![Just(2usize), Just(4usize)],
        barrier_ms in 150u64..1_500,
        seed in 0u64..1_000,
        tiered in prop_oneof![Just(false), Just(true)],
    ) {
        let trace = small_trace(seed);
        let make = |threads| {
            if tiered {
                tiered_fleet(threads)
            } else {
                mixed_fleet_with(threads, perm_plan())
            }
        };
        let base = make(1).run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(
            base.finished() + base.shed() + base.cancelled(),
            base.total(),
            "a request fell between the crashed member and the fleet: {:?}",
            base.failover
        );
        prop_assert_eq!(base.leaked_leases(), 0, "crash drain leaked KV leases");
        let threaded = make(threads).run(&trace, &mut PrefixAffinity::default());
        prop_assert_eq!(&base, &threaded, "thread count changed the failover run");
        let step = SimDuration::from_secs(barrier_ms as f64 / 1e3);
        let barriers: Vec<SimTime> = (1..=60).map(|k| SimTime::ZERO + step * k as f64).collect();
        let chopped = make(threads).run_opts(&trace, &mut PrefixAffinity::default(), &barriers);
        prop_assert_eq!(&base, &chopped, "barrier interleaving changed the failover run");
    }
}

#[derive(Debug, Clone)]
enum PoolOp {
    /// A member commits `tokens` of session `session`'s context.
    Commit {
        member: usize,
        session: u64,
        tokens: u64,
    },
    /// The fleet imports `from`'s cached slice of a session into `to`.
    Replicate {
        from: usize,
        to: usize,
        session: u64,
    },
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        (0usize..4, 0u64..12, 1u64..700).prop_map(|(member, session, tokens)| PoolOp::Commit {
            member,
            session,
            tokens,
        }),
        (0usize..4, 0usize..4, 0u64..12).prop_map(|(from, to, session)| PoolOp::Replicate {
            from,
            to,
            session,
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The holder index read the way the fleet reads it — a member's
    /// tables are re-read only after something wrote to them — lists
    /// every member whose probe of a request is nonzero, after commits,
    /// replica imports and the evictions small pools force. Odd members
    /// carry a second table with another block size, as split engines
    /// do, so a request is looked up under two first blocks.
    #[test]
    fn holder_index_lists_every_member_with_a_nonzero_probe(
        ops in prop::collection::vec(pool_op(), 1..60),
    ) {
        let mut members: Vec<Vec<LeaseTable>> = (0..4)
            .map(|m| {
                let mut tables = vec![LeaseTable::new(1_024, 64)];
                if m % 2 == 1 {
                    tables.push(LeaseTable::new(768, 32));
                }
                tables
            })
            .collect();
        let mut index = HolderIndex::new(members.len());
        for (m, tables) in members.iter().enumerate() {
            index.absorb(m, tables);
        }
        let mut candidates = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_nanos(step as u64);
            let touched = match op {
                PoolOp::Commit { member, session, tokens } => {
                    for table in &mut members[member] {
                        table.insert(&Block::sequence(session, tokens, table.block_size()), now);
                    }
                    member
                }
                PoolOp::Replicate { from, to, session } => {
                    for k in 0..members[from].len().min(members[to].len()) {
                        let bs = members[from][k].block_size();
                        let recorded = Block::sequence(session, 700, bs);
                        let export = members[from][k].export_prefix(&recorded).to_vec();
                        members[to][k].insert(&export, now);
                    }
                    to
                }
            };
            index.absorb(touched, &members[touched]);
            for session in 0..12 {
                let streams: Vec<Vec<Block>> = [64u32, 32]
                    .iter()
                    .map(|&bs| Block::sequence(session, 700, bs))
                    .collect();
                index.candidates(streams.iter().map(Vec::as_slice), &mut candidates);
                for (m, tables) in members.iter().enumerate() {
                    let hit = tables.iter().map(|t| {
                        let blocks = streams.iter().find(|b| b[0].tokens == t.block_size());
                        blocks.map_or(0, |b| t.peek_prefix(b))
                    }).max().unwrap_or(0);
                    prop_assert!(
                        hit == 0 || candidates.contains(&m),
                        "member {} holds {} tokens of session {} but is no candidate",
                        m, hit, session
                    );
                }
            }
        }
    }
}
