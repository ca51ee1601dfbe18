//! Differential test: the static verifier agrees with the cycle
//! simulator's dynamic checks.
//!
//! For every VN partition on fabrics up to 16 multipliers (exhaustive),
//! and for seeded-random samples at 64 multipliers (fault-free and
//! faulty), `maeri_verify::verify_reduction` must accept exactly when
//! `maeri::art::ArtConfig::build_with_faults` accepts — and on mutual
//! acceptance, the two walks must agree on forwarding-link count,
//! active adders, and throughput slowdown.

use maeri::art::{ArtConfig, VnRange};
use maeri::fault::{FaultPlan, FaultSpec};
use maeri::mapper::{CandidateKind, MappingCandidate};
use maeri::switch::AdderMode;
use maeri::MaeriConfig;
use maeri_dnn::layer::FcLayer;
use maeri_noc::{BinaryTree, ChubbyTree};
use maeri_sim::SimRng;
use maeri_verify::{verify_mapping, verify_reduction, VerifyLayer};

fn chubby(leaves: usize, bw: usize) -> ChubbyTree {
    ChubbyTree::new(BinaryTree::with_leaves(leaves).unwrap(), bw).unwrap()
}

/// Asserts accept/reject parity for one partition, and metric equality
/// when both sides accept. Returns whether the partition was accepted.
fn assert_parity(leaves: usize, bw: usize, faults: Option<&FaultPlan>, vns: &[VnRange]) -> bool {
    let static_side = verify_reduction(&chubby(leaves, bw), faults, vns);
    let dynamic_side = ArtConfig::build_with_faults(chubby(leaves, bw), vns, faults);
    assert_eq!(
        static_side.is_ok(),
        dynamic_side.is_ok(),
        "verdict mismatch on {vns:?} (leaves={leaves}, bw={bw}): static={static_side:?}",
    );
    match (static_side, dynamic_side) {
        (Ok(report), Ok(art)) => {
            assert_eq!(
                report.forwarding_links,
                art.forwarding_links().len(),
                "forwarding-link count mismatch on {vns:?}"
            );
            assert_eq!(
                report.active_adders,
                art.active_adders(),
                "active-adder count mismatch on {vns:?}"
            );
            assert!(
                (report.collection_slowdown - art.throughput_slowdown()).abs() < 1e-12,
                "slowdown mismatch on {vns:?}: {} vs {}",
                report.collection_slowdown,
                art.throughput_slowdown()
            );
            assert_eq!(report.busy_leaves, art.busy_leaves());
            assert_eq!(report.num_vns, art.output_nodes().len());
            true
        }
        _ => false,
    }
}

/// Enumerates every partition of `leaves` cells into contiguous VNs
/// with arbitrary idle gaps, invoking `f` on each (including the empty
/// partition). There are Fib(2n+1) of them: 34 at 4 leaves, 1597 at 8.
fn for_each_gapped_partition(leaves: usize, f: &mut impl FnMut(&[VnRange])) {
    fn recurse(
        leaves: usize,
        cursor: usize,
        acc: &mut Vec<VnRange>,
        f: &mut impl FnMut(&[VnRange]),
    ) {
        if cursor >= leaves {
            f(acc);
            return;
        }
        // Leave `cursor` idle.
        recurse(leaves, cursor + 1, acc, f);
        // Or start a VN of every possible length at `cursor`.
        for len in 1..=(leaves - cursor) {
            acc.push(VnRange::new(cursor, len));
            recurse(leaves, cursor + len, acc, f);
            acc.pop();
        }
    }
    recurse(leaves, 0, &mut Vec::new(), f);
}

/// Enumerates every gapless composition of `leaves` into VN sizes
/// (2^(leaves-1) of them: 32768 at 16 leaves).
fn for_each_composition(leaves: usize, f: &mut impl FnMut(&[VnRange])) {
    fn recurse(
        leaves: usize,
        cursor: usize,
        acc: &mut Vec<VnRange>,
        f: &mut impl FnMut(&[VnRange]),
    ) {
        if cursor == leaves {
            f(acc);
            return;
        }
        for len in 1..=(leaves - cursor) {
            acc.push(VnRange::new(cursor, len));
            recurse(leaves, cursor + len, acc, f);
            acc.pop();
        }
    }
    recurse(leaves, 0, &mut Vec::new(), f);
}

#[test]
fn exhaustive_gapped_partitions_at_4_and_8_leaves() {
    for &(leaves, expected_count) in &[(4usize, 34usize), (8, 1597)] {
        for bw in [1, leaves / 2] {
            let mut total = 0usize;
            let mut accepted = 0usize;
            for_each_gapped_partition(leaves, &mut |vns| {
                total += 1;
                if assert_parity(leaves, bw, None, vns) {
                    accepted += 1;
                }
            });
            assert_eq!(total, expected_count);
            // Every disjoint in-range partition is mappable on a
            // healthy fabric (non-blocking reduction, Property 2).
            assert_eq!(accepted, total);
        }
    }
}

#[test]
fn exhaustive_compositions_at_16_leaves() {
    let mut total = 0usize;
    for_each_composition(16, &mut |vns| {
        total += 1;
        assert!(assert_parity(16, 8, None, vns));
    });
    assert_eq!(total, 1 << 15);
}

#[test]
fn exhaustive_gapped_partitions_at_8_leaves_with_faults() {
    // A fault plan dense enough to kill leaves and sever forwarding
    // links on an 8-leaf fabric; parity must hold on rejects (dead
    // leaf) exactly as on accepts.
    for seed in 0..4u64 {
        let spec = FaultSpec::new(seed)
            .dead_multipliers(250)
            .dead_forwarding_links(250);
        let plan = FaultPlan::materialize(spec, 8);
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        for_each_gapped_partition(8, &mut |vns| {
            if assert_parity(8, 4, Some(&plan), vns) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        });
        if !plan.dead_leaves().is_empty() {
            assert!(rejected > 0, "seed {seed}: no partition hit a dead leaf");
        }
        assert!(accepted > 0, "seed {seed}: fabric unusable");
    }
}

/// Draws a random partition with idle gaps; occasionally (when `dirty`)
/// produces overlapping or out-of-range ranges so reject parity is
/// exercised too. VN order is shuffled so the walks see unsorted input.
fn random_partition(rng: &mut SimRng, leaves: usize, dirty: bool) -> Vec<VnRange> {
    let mut vns = Vec::new();
    let mut cursor = 0usize;
    while cursor < leaves {
        if rng.next_bool(0.25) {
            cursor += 1 + rng.next_below(3);
            continue;
        }
        let len = 1 + rng.next_below((leaves - cursor).min(12));
        vns.push(VnRange::new(cursor, len));
        cursor += len;
    }
    if dirty && !vns.is_empty() {
        let victim = rng.next_below(vns.len());
        let v = vns[victim];
        vns[victim] = match rng.next_below(3) {
            // Shift left: may overlap the previous VN or leave bounds.
            0 => VnRange::new(v.start.saturating_sub(1 + rng.next_below(2)), v.len),
            // Grow: may overlap the next VN or run past the leaves.
            1 => VnRange::new(v.start, v.len + 1 + rng.next_below(leaves / 4)),
            // Teleport past the end of the array.
            _ => VnRange::new(leaves - 1, 2 + rng.next_below(4)),
        };
    }
    // Shuffle so neither walk can rely on sorted input.
    for i in (1..vns.len()).rev() {
        vns.swap(i, rng.next_below(i + 1));
    }
    vns
}

#[test]
fn seeded_random_partitions_at_16_leaves() {
    let mut rng = SimRng::seed(0x1616);
    let mut accepted = 0usize;
    for trial in 0..2000 {
        let vns = random_partition(&mut rng, 16, trial % 3 == 0);
        if assert_parity(16, 8, None, &vns) {
            accepted += 1;
        }
    }
    assert!(accepted > 1000);
}

#[test]
fn seeded_random_partitions_at_64_leaves() {
    let mut rng = SimRng::seed(0x6464);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for trial in 0..1500 {
        let vns = random_partition(&mut rng, 64, trial % 3 == 0);
        for bw in [8, 16] {
            if assert_parity(64, bw, None, &vns) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(accepted > 1500, "accepted only {accepted}");
    assert!(rejected > 100, "rejected only {rejected}");
}

/// Draws a random partition confined to the fabric's healthy spans, so
/// it is dead-leaf-free by construction and exercises the faulty
/// forwarding-link rules on the accept path.
fn random_partition_in_spans(rng: &mut SimRng, spans: &[VnRange]) -> Vec<VnRange> {
    let mut vns = Vec::new();
    for span in spans {
        let mut cursor = span.start;
        while cursor < span.end() {
            if rng.next_bool(0.2) {
                cursor += 1;
                continue;
            }
            let len = 1 + rng.next_below((span.end() - cursor).min(9));
            vns.push(VnRange::new(cursor, len));
            cursor += len;
        }
    }
    vns
}

#[test]
fn seeded_random_partitions_at_64_leaves_with_faults() {
    let mut rng = SimRng::seed(0x64F);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for seed in 0..6u64 {
        let spec = FaultSpec::new(seed)
            .dead_multipliers(60)
            .dead_adders(30)
            .dead_forwarding_links(120);
        let plan = FaultPlan::materialize(spec, 64);
        let spans = plan.healthy_spans();
        // Partitions built from the plan's own healthy spans must
        // verify: the fault-aware remapper depends on this.
        assert!(assert_parity(64, 8, Some(&plan), &spans));
        for trial in 0..300 {
            // Alternate between span-confined draws (dead-leaf-free,
            // so the severed-FL accept path gets real coverage) and
            // free draws (which almost always hit a dead leaf).
            let vns = if trial % 2 == 0 {
                random_partition_in_spans(&mut rng, &spans)
            } else {
                random_partition(&mut rng, 64, trial % 4 == 1)
            };
            if assert_parity(64, 8, Some(&plan), &vns) {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(accepted > 500, "accepted only {accepted}");
    assert!(rejected > 500, "rejected only {rejected}");
}

/// An FC mapping with VN size 1 on 256 switches routes one value per
/// leaf through the root adder: 256 passes, one past `u8::MAX`. Both
/// walks must accept it without overflowing (test builds check
/// arithmetic), and the root must still forward rather than idle.
#[test]
fn fc_vn_size_one_on_256_switches_forwards_at_the_root() {
    let base = MaeriConfig::builder(256).build().unwrap();
    let fc = FcLayer::new("fc-256", 256, 4);
    let cand = MappingCandidate::with_base_bandwidth(CandidateKind::Fc { vn_size: 1 }, &base);
    let report = verify_mapping(&base, &VerifyLayer::Fc(&fc), &cand).unwrap();
    let reduction = report.partition.unwrap().reduction;
    assert_eq!((reduction.num_vns, reduction.busy_leaves), (256, 256));

    let vns: Vec<VnRange> = (0..256).map(|leaf| VnRange::new(leaf, 1)).collect();
    let art = ArtConfig::build(base.collection_chubby(), &vns).unwrap();
    assert_eq!(
        art.adder_mode(art.tree().node_at(0, 0)),
        AdderMode::ForwardTwo
    );
}
