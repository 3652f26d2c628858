//! Chaos-suite contract tests: fault plans are validated at build time,
//! bit-reproducible on the simulator, and survivable on the thread
//! backend. The socket backend's refusal is in the root `tests/socket.rs`.

use paris_runtime::{Backend, Cluster, ClusterBuilder, Paris};
use paris_types::{DcId, Error, FaultPlan, Mode};
use proptest::prelude::*;

fn sim_builder(seed: u64) -> ClusterBuilder {
    Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .keys_per_partition(200)
        .uniform_latency_micros(10_000)
        .jitter(0.02)
        .clients_per_dc(2)
        .mode(Mode::Paris)
        .seed(seed)
        .record_history(true)
}

#[test]
fn plan_targeting_unknown_dc_is_rejected_at_build_time() {
    let plan = FaultPlan::new().crash_dc(10_000, DcId(7));
    let err = sim_builder(1)
        .fault_plan(plan)
        .build_sim()
        .err()
        .expect("build must fail");
    assert!(
        err.to_string()
            .contains("fault plan targets a DC out of range"),
        "unexpected error: {err}"
    );
}

#[test]
fn self_link_and_bad_factor_plans_are_rejected_at_build_time() {
    let plan = FaultPlan::new().partition_link(10_000, DcId(1), DcId(1));
    let err = sim_builder(1)
        .fault_plan(plan)
        .build_sim()
        .err()
        .expect("build must fail");
    assert!(
        err.to_string()
            .contains("fault plan targets a link from a DC to itself"),
        "unexpected error: {err}"
    );

    let plan = FaultPlan::new().slow_link(10_000, DcId(0), DcId(1), 0.5);
    let err = sim_builder(1)
        .fault_plan(plan)
        .build_sim()
        .err()
        .expect("build must fail");
    assert!(
        err.to_string().contains("slow-link factor"),
        "unexpected error: {err}"
    );
}

#[test]
fn install_fault_plan_validates_against_the_running_shape() {
    for backend in [Backend::Sim, Backend::Thread] {
        let mut cluster = sim_builder(1).backend(backend).build().unwrap();
        let err = cluster
            .install_fault_plan(FaultPlan::new().rejoin_dc(0, DcId(3)))
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("fault plan targets a DC out of range"),
            "{backend:?}: unexpected error: {err}"
        );
        // A plan inside the running shape installs.
        let plan = FaultPlan::new().skew_clock(0, DcId(2), 0);
        cluster.install_fault_plan(plan).unwrap();
    }
}

#[test]
fn kill_server_on_sim_and_thread_names_the_backend_after_the_index_check() {
    for backend in [Backend::Sim, Backend::Thread] {
        let mut cluster = sim_builder(1).backend(backend).build().unwrap();
        // Out-of-range index: the unified config error, on every backend.
        let err = cluster.kill_server(10_000).unwrap_err();
        assert!(
            err.to_string().contains("server index out of range"),
            "{backend:?}: {err}"
        );
        // Valid index: a clean Unsupported naming this backend.
        let err = cluster.kill_server(0).unwrap_err();
        match err {
            Error::Unsupported(what) => assert!(
                what.contains(cluster.backend_name()),
                "{backend:?} error must name the backend: {what}"
            ),
            other => panic!("{backend:?}: expected Unsupported, got {other}"),
        }
        let err = cluster.restart_server(0).unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)), "{backend:?}: {err}");
    }
}

#[test]
fn thread_backend_survives_a_scripted_partition_and_converges() {
    // Real threads, wall-clock plan: cut the DC0–DC1 link 50 ms in, heal
    // at 200 ms, then verify nothing was lost and TCC held throughout.
    let plan = FaultPlan::new()
        .partition_link(50_000, DcId(0), DcId(1))
        .heal_link(200_000, DcId(0), DcId(1))
        .skew_clock(100_000, DcId(2), 2_000);
    let mut cluster = sim_builder(7)
        .latency_scale(0.05)
        .fault_plan(plan)
        .build_thread()
        .unwrap();
    let report = cluster.run_workload(100_000, 400_000).unwrap();
    assert!(report.stats.committed > 0, "faults must not wedge commits");
    assert!(
        report.violations.is_empty(),
        "TCC must hold through the flap: {:#?}",
        report.violations
    );
    // Give held traffic time to drain after the heal, then check that
    // every replica converged.
    cluster.stabilize(4);
    let convergence = cluster.check_convergence().unwrap();
    assert!(
        convergence.is_empty(),
        "replicas must converge after heal: {convergence:#?}"
    );
}

/// Maps a compact generated description to a (valid) plan over 3 DCs.
fn plan_from(events: &[(u32, u8)]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &(at, kind) in events {
        let at = u64::from(at) % 500_000;
        plan = match kind % 7 {
            0 => plan.partition_link(at, DcId(0), DcId(1)),
            1 => plan.heal_link(at, DcId(0), DcId(1)),
            2 => plan.crash_dc(at, DcId(2)),
            3 => plan.rejoin_dc(at, DcId(2)),
            4 => plan.slow_link(at, DcId(0), DcId(2), 4.0),
            5 => plan.restore_link(at, DcId(0), DcId(2)),
            _ => plan.skew_clock(at, DcId(1), 2_000),
        };
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The tentpole determinism contract: the same seed and the same
    /// fault plan produce a bit-identical sim run — faults included.
    /// (RunReport carries histograms without PartialEq, so the comparison
    /// goes through the full Debug rendering.)
    #[test]
    fn prop_same_seed_and_plan_is_bit_identical(
        seed in 0u64..1_000,
        events in proptest::collection::vec((0u32..500_000, 0u8..14), 0..4),
    ) {
        let run = |seed: u64, events: &[(u32, u8)]| {
            let mut sim = sim_builder(seed)
                .fault_plan(plan_from(events))
                .build_sim()
                .expect("drill shape is valid");
            let report = sim.run_workload(100_000, 400_000).expect("sim workload");
            sim.settle(1_000_000);
            (format!("{report:?}"), sim.min_ust(), sim.now())
        };
        let a = run(seed, &events);
        let b = run(seed, &events);
        prop_assert_eq!(a, b, "same seed + same plan must be bit-identical");
    }
}
