//! Cross-commit result pins: one tiny run of each scenario family, each
//! reduced to the FNV-1a digest of its final metric scrape's JSON (the
//! digest the benchmark computes). The determinism tests compare serial
//! against partitioned runs of the same commit, so a change that shifts
//! both sides alike — a reordered spawn, a moved RNG draw — passes them;
//! these digests hold the bytes fixed across commits.
//!
//! A second table pins the snapshot codec: the digest of the executor
//! payload `SimHost::save_state` writes at a mid-run instant. It holds
//! the encoding of every layer's state fixed, independent of the file
//! framing (header and checksum) around it.
//!
//! A deliberate model change updates the table, and says why in its
//! commit message.

use diablo::core::{
    run, ArrivalSpec, Cluster, ControlConfig, Experiment, FaultPlan, IncastClientKind,
    IncastConfig, McExperimentConfig, PaExperimentConfig, Workload,
};
use diablo::engine::metrics::MetricsRegistry;
use diablo::engine::snap::SnapWriter;
use diablo::engine::time::{SimDuration, SimTime};
use diablo::net::topology::FatTreeConfig;
use diablo::stack::process::Proto;
use diablo::stack::profile::CongestionControl;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn digest(metrics: &MetricsRegistry) -> u64 {
    fnv1a(metrics.to_json().bytes())
}

fn check(name: &str, metrics: &MetricsRegistry, pinned: u64) {
    let got = digest(metrics);
    assert_eq!(got, pinned, "{name}: scrape digest {got:016x} != pinned {pinned:016x}");
}

#[test]
fn closed_loop_runs_match_their_pins() {
    check(
        "memcached closed loop",
        &run(&McExperimentConfig::mini(2, 10)).metrics,
        0x3548_b990_5091_7084,
    );
    let mut incast = IncastConfig::fig6a(4);
    incast.iterations = 2;
    check("incast closed loop", &run(&incast).metrics, 0x1a4b_c3e1_f86f_6297);
    check(
        "partition-aggregate closed loop",
        &run(&PaExperimentConfig::new(2, 10)).metrics,
        0x6fc4_1598_9d15_4447,
    );
}

#[test]
fn open_loop_run_matches_its_pin() {
    let mut cfg = McExperimentConfig::mini(1, 0);
    cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(20)).unwrap());
    cfg.slo = Some(SimDuration::from_micros(500));
    check("memcached open loop", &run(&cfg).metrics, 0xec1a_a1d4_963b_075a);
}

#[test]
fn control_plane_runs_match_their_pins() {
    let mut mc = McExperimentConfig::mini(2, 0);
    mc.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(30)).unwrap());
    mc.slo = Some(SimDuration::from_millis(1));
    mc.control = Some(ControlConfig::default());
    mc.faults = Some(FaultPlan::parse("8ms node-crash node0").expect("valid plan"));
    let failover = run(&mc);
    let failovers = failover.summary.control.as_ref().map(|c| c.failovers);
    assert_eq!(failovers, Some(1), "the crashed replica must fail over");
    check("memcached failover", &failover.metrics, 0x140a_baf4_3368_6b6f);

    let mut pa = PaExperimentConfig::new(2, 20);
    pa.cross_rack = true;
    pa.control = Some(ControlConfig::default());
    check("partition-aggregate control plane", &run(&pa).metrics, 0xd422_5a28_a548_0d9f);

    let mut incast = IncastConfig::fig6a(4);
    incast.iterations = 2;
    incast.client = IncastClientKind::Epoll;
    incast.control = Some(ControlConfig::default());
    check("incast monitoring", &run(&incast).metrics, 0xdf94_abe9_3913_6735);
}

#[test]
fn fat_tree_dctcp_run_matches_its_pin() {
    let mut cfg = IncastConfig::fig6a(4).on_fat_tree(FatTreeConfig::new(4));
    cfg.iterations = 2;
    cfg.cc = CongestionControl::Dctcp;
    check("incast fat-tree dctcp", &run(&cfg).metrics, 0xbc78_a4ce_dbe3_2b94);
}

#[test]
fn fault_plan_run_matches_its_pin() {
    let mut cfg = PaExperimentConfig::new(2, 20);
    cfg.faults =
        Some(FaultPlan::parse("1ms link-down node1\n3ms link-up node1").expect("valid plan"));
    check("partition-aggregate link flap", &run(&cfg).metrics, 0xeb3c_69d8_0b4a_356e);
}

/// Digest of the executor snapshot payload of `exp` driven to `at`:
/// instantiate, apply the fault plan, build the workload, drive, save.
/// Every instant below falls before its run completes, so the payload
/// holds in-flight frames, open connections and mid-protocol states.
fn payload_digest<E: Experiment>(exp: &E, at: SimTime) -> u64 {
    let base = exp.base();
    let (mut host, cluster) = Cluster::instantiate(&base.spec(), base.mode);
    if let Some(plan) = &base.faults {
        plan.apply(&mut host, &cluster).expect("plan fits the cluster");
    }
    exp.workload().expect("valid config").build(&mut host, &cluster);
    host.run_until(at).expect("drive to the snapshot instant");
    let mut w = SnapWriter::new();
    host.save_state(&mut w);
    fnv1a(w.into_bytes())
}

fn check_payload<E: Experiment>(name: &str, exp: &E, at_us: u64, pinned: u64) {
    let got = payload_digest(exp, SimTime::from_micros(at_us));
    assert_eq!(got, pinned, "{name}: payload digest {got:016x} != pinned {pinned:016x}");
}

#[test]
fn snapshot_payloads_match_their_pins() {
    check_payload("memcached udp", &McExperimentConfig::mini(2, 10), 300, 0xb9dd_bfff_4695_2650);

    let mut tcp = McExperimentConfig::mini(2, 10);
    tcp.proto = Proto::Tcp;
    check_payload("memcached tcp", &tcp, 300, 0xb21a_26b5_f12c_e6a4);

    let mut ol = McExperimentConfig::mini(2, 0);
    ol.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(30)).unwrap());
    ol.slo = Some(SimDuration::from_millis(1));
    ol.control = Some(ControlConfig::default());
    check_payload("memcached open loop + control plane", &ol, 10_000, 0x4ce8_8b11_2948_b683);

    let mut incast = IncastConfig::fig6a(4);
    incast.iterations = 2;
    check_payload("incast pthread", &incast, 2_000, 0x47c9_588d_8c0e_dc5e);
    incast.client = IncastClientKind::Epoll;
    check_payload("incast epoll", &incast, 2_000, 0x5418_1749_ec15_5c7b);

    let mut ft = IncastConfig::fig6a(4).on_fat_tree(FatTreeConfig::new(4));
    ft.iterations = 2;
    ft.cc = CongestionControl::Dctcp;
    check_payload("incast fat-tree dctcp", &ft, 2_000, 0xf115_9c42_f673_5df2);

    let mut pa = PaExperimentConfig::new(2, 20);
    pa.faults =
        Some(FaultPlan::parse("1ms link-down node1\n3ms link-up node1").expect("valid plan"));
    check_payload("partition-aggregate link flap", &pa, 2_000, 0x32ac_705d_d11f_7202);
}
