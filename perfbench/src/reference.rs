//! The correctness gate: a one-process reference DB for the stream the run
//! actually sent, built outside the timed window from the public release
//! primitives (`Mechanism::sampler` + `chunk_rng(seed, seq)` +
//! `Server::receive_batch`).
//!
//! Reports for the same `(user, epoch)` overwrite in arrival order, and the
//! stream cycles through a trace whose keys are unique, so the final DB
//! holds exactly the last `trace.len()` positions. The reference releases
//! those, each under the policy in force at its position, and lands them in
//! stream order on a fresh server. The run puts a policy switch inside those
//! positions, so a switch applied at the wrong place fails the check.

use crate::live::Stream;
use crate::topology::STRIPES;
use crate::workload::{Inputs, EPS};
use panda_core::release::chunk_rng;
use panda_core::{GraphExponential, LocationPolicyGraph, Mechanism, PolicyIndex};
use panda_geo::CellId;
use panda_mobility::TrajectoryDb;
use panda_surveillance::protocol::LocationReport;
use panda_surveillance::Server;

/// The DB a single process would hold after `stream`.
pub fn reference_db(
    inputs: &Inputs,
    base: &LocationPolicyGraph,
    round_policies: &[LocationPolicyGraph],
    stream: &Stream,
) -> TrajectoryDb {
    let len = inputs.trace.len() as u64;
    let lo = stream.sent.saturating_sub(len);
    let hi = stream.sent;
    assert!(
        stream.switches.iter().any(|&(p, _)| (lo..hi).contains(&p)),
        "no policy switch inside the compared positions {lo}..{hi}"
    );
    // Policy segments `[start, end)` overlapping `[lo, hi)`.
    let mut starts: Vec<(u64, &LocationPolicyGraph)> = vec![(0, base)];
    for &(pos, round) in &stream.switches {
        starts.push((pos, &round_policies[round]));
    }
    let mut released = vec![CellId(0); (hi - lo) as usize];
    for (i, &(start, policy)) in starts.iter().enumerate() {
        let end = starts.get(i + 1).map_or(hi, |s| s.0);
        let (a, b) = (start.max(lo), end.min(hi));
        if a >= b {
            continue;
        }
        release_segment(
            inputs,
            policy,
            a,
            b,
            &mut released[(a - lo) as usize..(b - lo) as usize],
        );
    }
    let reports: Vec<LocationReport> = (lo..hi)
        .zip(&released)
        .map(|(p, &cell)| {
            let r = inputs.trace[(p % len) as usize];
            LocationReport {
                user: r.user,
                epoch: r.epoch,
                cell,
                resend: r.resend,
            }
        })
        .collect();
    let server = Server::with_shards(inputs.grid.clone(), STRIPES);
    server.receive_batch(reports);
    server.reported_db(inputs.horizon)
}

/// Releases positions `a..b` under `policy` into `out`, one sampler per
/// distinct cell (an uncached index, so memory stays flat even for
/// 9 216-entry tables), split over two threads by cell.
fn release_segment(
    inputs: &Inputs,
    policy: &LocationPolicyGraph,
    a: u64,
    b: u64,
    out: &mut [CellId],
) {
    let len = inputs.trace.len() as u64;
    let n_cells = inputs.grid.n_cells() as usize;
    // Counting sort of positions by true cell.
    let mut counts = vec![0usize; n_cells + 1];
    for p in a..b {
        counts[inputs.trace[(p % len) as usize].cell.index() + 1] += 1;
    }
    for c in 0..n_cells {
        counts[c + 1] += counts[c];
    }
    let mut by_cell = vec![0u64; (b - a) as usize];
    let mut cursor = counts.clone();
    for p in a..b {
        let c = inputs.trace[(p % len) as usize].cell.index();
        by_cell[cursor[c]] = p;
        cursor[c] += 1;
    }
    let index = PolicyIndex::with_cache_capacity(policy.clone(), 0);
    // Two halves with about the same number of positions.
    let half = counts
        .partition_point(|&c| c < by_cell.len() / 2)
        .min(n_cells);
    let seed = inputs.release_seed;
    let work = |cells: std::ops::Range<usize>| {
        let mut drawn = Vec::with_capacity(counts[cells.end] - counts[cells.start]);
        for c in cells {
            let group = &by_cell[counts[c]..counts[c + 1]];
            if group.is_empty() {
                continue;
            }
            let sampler = GraphExponential
                .sampler(&index, EPS, CellId(c as u32))
                .expect("trace cells are releasable");
            for &p in group {
                drawn.push((p, sampler.draw(&mut chunk_rng(seed, p))));
            }
        }
        drawn
    };
    let (left, right) = std::thread::scope(|s| {
        let left = s.spawn(|| work(0..half));
        let right = work(half..n_cells);
        (left.join().expect("reference thread"), right)
    });
    for (p, z) in left.into_iter().chain(right) {
        out[(p - a) as usize] = z;
    }
}
