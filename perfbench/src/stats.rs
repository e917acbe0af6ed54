//! The benchmark's own arithmetic, kept free of I/O and clocks so it can be
//! tested on synthetic inputs: percentiles, open-loop bookkeeping, matching
//! land times to poll samples, Little's law and the layer ledger.

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p ≤ 1) of an ascending sample by the
/// ceil-rank rule; 0.0 on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of an unsorted sample; 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// A tail percentile as reported: its value, the percentile actually used
/// and the sample count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

/// The `p`-th percentile of an ascending sample, or — when fewer than
/// `min_beyond` samples would lie beyond it — the highest percentile that
/// still has `min_beyond` samples beyond it (never below the median).
pub fn tail(sorted: &[f64], p: f64, min_beyond: usize) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: p,
            samples: 0,
        };
    }
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
    let rank = rank.min(n.saturating_sub(min_beyond)).max(n.div_ceil(2));
    Tail {
        value: sorted[rank - 1],
        percentile: rank as f64 / n as f64,
        samples: n,
    }
}

/// One frame of an open-loop phase, in seconds since the phase started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameTimes {
    /// When the schedule said the frame should go out.
    pub due: f64,
    /// When the generator actually wrote it.
    pub sent: f64,
    /// When its `Ack` arrived.
    pub acked: f64,
}

/// A fixed-rate send schedule: frame `i` is due at `i * interval`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    pub interval: f64,
}

impl Schedule {
    /// The schedule offering `rate` reports/s in frames of `frame_len`.
    pub fn new(rate: f64, frame_len: usize) -> Self {
        Schedule {
            interval: frame_len as f64 / rate,
        }
    }

    /// When frame `i` is due.
    pub fn due(&self, i: usize) -> f64 {
        i as f64 * self.interval
    }

    /// How many frames fall due within a phase of `seconds`.
    pub fn frames_within(&self, seconds: f64) -> usize {
        (seconds / self.interval).ceil() as usize
    }
}

/// Ack latency of each frame in ms, counted from its due time — so a stall
/// also counts against every frame queued behind it.
pub fn ack_latencies_ms(frames: &[FrameTimes]) -> Vec<f64> {
    frames.iter().map(|f| (f.acked - f.due) * 1e3).collect()
}

/// How late the generator wrote each frame, in ms.
pub fn lateness_ms(frames: &[FrameTimes]) -> Vec<f64> {
    frames
        .iter()
        .map(|f| (f.sent - f.due).max(0.0) * 1e3)
        .collect()
}

/// One reading of the landed-report counters, one count per owning server.
#[derive(Debug, Clone, PartialEq)]
pub struct PollSample {
    pub t: f64,
    pub counts: Vec<u64>,
}

/// When each frame was fully landed: the first poll at which every server
/// the frame sent reports to had counted them. `cumulative[i][s]` is the
/// landed count server `s` reaches once frames `0..=i` are in (landing is
/// FIFO per queue); `base[s]` is its count before frame 0. Frames never
/// seen landed get `None`.
pub fn land_times(
    samples: &[PollSample],
    base: &[u64],
    cumulative: &[Vec<u64>],
) -> Vec<Option<f64>> {
    let n_servers = base.len();
    let mut out = vec![Some(f64::NEG_INFINITY); cumulative.len()];
    for s in 0..n_servers {
        let mut cursor = 0usize;
        let mut previous = base[s];
        for (i, need) in cumulative.iter().enumerate() {
            let need = need[s];
            let touches = need > previous;
            previous = need;
            if !touches {
                continue;
            }
            while cursor < samples.len() && samples[cursor].counts[s] < need {
                cursor += 1;
            }
            out[i] = match (out[i], samples.get(cursor)) {
                (Some(t), Some(sample)) => Some(t.max(sample.t)),
                _ => None,
            };
        }
    }
    out
}

/// Land latency of each frame in ms from its due time (frames never seen
/// landed are left out).
pub fn land_latencies_ms(due: &[f64], landed: &[Option<f64>]) -> Vec<f64> {
    due.iter()
        .zip(landed)
        .filter_map(|(&d, &l)| l.map(|l| (l - d).max(0.0) * 1e3))
        .collect()
}

/// Little's law: the mean time a report waits in the queue, in ms, from the
/// mean queue depth (reports) and the arrival rate (reports/s).
pub fn littles_law_wait_ms(mean_depth: f64, arrival_rate: f64) -> f64 {
    if arrival_rate <= 0.0 {
        0.0
    } else {
        mean_depth / arrival_rate * 1e3
    }
}

/// The layer ledger: single-thread costs per report on one side, the
/// end-to-end cost per report on the other.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `(layer, ns/report)` in pipeline order.
    pub rows: Vec<(String, f64)>,
    /// Σ rows: the single-thread replay cost of one report.
    pub replay_ns_per_report: f64,
    /// `1e9 / reports_per_s − replay_ns_per_report`: handoffs, syscalls,
    /// waiting — minus whatever the pipeline overlaps. Negative when
    /// parallel lanes beat the single-thread sum.
    pub unexplained_ns_per_report: f64,
}

impl Ledger {
    pub fn new(rows: Vec<(String, f64)>, reports_per_s: f64) -> Self {
        let replay_ns_per_report = rows.iter().map(|(_, ns)| ns).sum();
        let end_to_end = if reports_per_s > 0.0 {
            1e9 / reports_per_s
        } else {
            0.0
        };
        Ledger {
            rows,
            replay_ns_per_report,
            unexplained_ns_per_report: end_to_end - replay_ns_per_report,
        }
    }
}

/// The relative cost of recording spans: `traced / plain − 1`.
pub fn overhead(plain_s: f64, traced_s: f64) -> f64 {
    if plain_s <= 0.0 {
        0.0
    } else {
        traced_s / plain_s - 1.0
    }
}

/// `(attempted − landed) / attempted`, or 1 when the DB check failed.
pub fn failed_share(attempted: u64, landed: u64, db_ok: bool) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    if !db_ok {
        return 1.0;
    }
    attempted.saturating_sub(landed) as f64 / attempted as f64
}

/// The `q`-quantile of a histogram given as `(inclusive upper bound,
/// cumulative count)` pairs in ascending order, read as the upper bound of
/// the bucket holding the ceil-rank sample. 0 when empty.
pub fn bucket_quantile(cumulative: &[(u64, u64)], q: f64) -> u64 {
    let Some(&(_, total)) = cumulative.last() else {
        return 0;
    };
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    cumulative
        .iter()
        .find(|&&(_, c)| c >= rank)
        .map_or(0, |&(le, _)| le)
}

/// Parses one histogram out of a `metrics_dump()` exposition: the
/// `<name>_bucket{le="…"} <cumulative>` lines, `+Inf` left out.
pub fn parse_buckets(text: &str, name: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, count) = rest.split_once("\"} ")?;
            Some((le.parse().ok()?, count.trim().parse().ok()?))
        })
        .collect()
}

/// Adds histograms from several nodes bucket by bucket.
pub fn merge_buckets(parts: &[Vec<(u64, u64)>]) -> Vec<(u64, u64)> {
    let mut bounds: Vec<u64> = parts.iter().flatten().map(|&(le, _)| le).collect();
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .into_iter()
        .map(|le| {
            let total = parts
                .iter()
                .map(|p| {
                    p.iter()
                        .take_while(|&&(b, _)| b <= le)
                        .last()
                        .map_or(0, |&(_, c)| c)
                })
                .sum();
            (le, total)
        })
        .collect()
}

/// Parses one counter out of a `metrics_dump()` exposition.
pub fn parse_counter(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        if n == name {
            v.trim().parse().ok()
        } else {
            None
        }
    })
}

/// `max / mean` of a load vector (1.0 is perfectly even).
pub fn skew(loads: &[usize]) -> f64 {
    let total: usize = loads.iter().sum();
    if loads.is_empty() || total == 0 {
        return 1.0;
    }
    let max = *loads.iter().max().expect("non-empty") as f64;
    max / (total as f64 / loads.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn percentile_uses_the_ceil_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_p99_when_ten_samples_lie_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 0.99, MIN_BEYOND);
        assert_eq!(t.value, 1980.0);
        assert!(approx(t.percentile, 0.99));
        assert_eq!(t.samples, 2000);
        // Exactly 1000 samples: 10 lie beyond the 990th.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 0.99, MIN_BEYOND);
        assert_eq!(t.value, 990.0);
        assert!(approx(t.percentile, 0.99));
    }

    #[test]
    fn tail_falls_back_to_the_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&v, 0.99, MIN_BEYOND);
        // 390th of 400 = p97.5, with samples 391..=400 beyond it.
        assert_eq!(t.value, 390.0);
        assert!(approx(t.percentile, 0.975));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        // Too few samples for any tail: the median stands in.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&v, 0.99, MIN_BEYOND);
        assert_eq!(t.value, 6.0);
        assert!(approx(t.percentile, 0.5));
    }

    #[test]
    fn tail_keeps_a_short_stall() {
        // 3 000 samples; a stall pushes 40 of them (1.3%) to 50.
        let mut v: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000) / 1000.0).collect();
        for x in &mut v[1000..1040] {
            *x = 50.0;
        }
        let t = tail(&sorted(&v), 0.99, MIN_BEYOND);
        assert_eq!(t.value, 50.0);
        assert!(approx(t.percentile, 0.99));
        assert_eq!(t.samples, 3000);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 1 000 reports/s in frames of 100: one frame due every 100 ms.
        let schedule = Schedule::new(1000.0, 100);
        assert!(approx(schedule.interval, 0.1));
        assert_eq!(schedule.frames_within(1.0), 10);
        // Replay a generator against a server that takes 10 ms per frame,
        // except frame 2, which stalls for 250 ms. The generator sends each
        // frame at max(due, previous ack).
        let service = |i: usize| if i == 2 { 0.25 } else { 0.01 };
        let mut frames = Vec::new();
        let mut free_at = 0.0f64;
        for i in 0..6 {
            let due = schedule.due(i);
            let sent = due.max(free_at);
            let acked = sent + service(i);
            free_at = acked;
            frames.push(FrameTimes { due, sent, acked });
        }
        let ack = ack_latencies_ms(&frames);
        let late = lateness_ms(&frames);
        // Frame 2 stalls; frames 3 and 4 were due while it stalled and
        // carry its delay; frame 5 is back on time.
        let expect_ack = [10.0, 10.0, 250.0, 160.0, 70.0, 10.0];
        let expect_late = [0.0, 0.0, 0.0, 150.0, 60.0, 0.0];
        for i in 0..6 {
            assert!(approx(ack[i], expect_ack[i]), "ack {i}: {}", ack[i]);
            assert!(approx(late[i], expect_late[i]), "late {i}: {}", late[i]);
        }
        // Timing from the send instead would hide the stall's victims.
        let from_send: Vec<f64> = frames.iter().map(|f| (f.acked - f.sent) * 1e3).collect();
        assert!(approx(from_send[3], 10.0));
        let late_sorted = sorted(&late);
        assert!(approx(percentile(&late_sorted, 1.0), 150.0));
    }

    #[test]
    fn land_times_match_single_server_polls() {
        // Base 1 000 landed; three frames of 10 reports.
        let cumulative = vec![vec![1010], vec![1020], vec![1030]];
        let samples = vec![
            PollSample {
                t: 0.1,
                counts: vec![1000],
            },
            PollSample {
                t: 0.2,
                counts: vec![1015],
            },
            PollSample {
                t: 0.3,
                counts: vec![1020],
            },
            PollSample {
                t: 0.4,
                counts: vec![1030],
            },
        ];
        let landed = land_times(&samples, &[1000], &cumulative);
        assert_eq!(landed, vec![Some(0.2), Some(0.3), Some(0.4)]);
        let lat = land_latencies_ms(&[0.0, 0.1, 0.2], &landed);
        assert!(approx(lat[0], 200.0) && approx(lat[1], 200.0) && approx(lat[2], 200.0));
    }

    #[test]
    fn land_times_take_the_slowest_owning_shard() {
        // Frame 0: reports on both shards. Frame 1: shard 1 only. Frame 2:
        // shard 0 only — it must not wait for shard 1's backlog.
        let base = [0, 0];
        let cumulative = vec![vec![5, 5], vec![5, 12], vec![9, 12]];
        let samples = vec![
            PollSample {
                t: 1.0,
                counts: vec![5, 0],
            },
            PollSample {
                t: 2.0,
                counts: vec![9, 5],
            },
            PollSample {
                t: 3.0,
                counts: vec![9, 12],
            },
        ];
        let landed = land_times(&samples, &base, &cumulative);
        assert_eq!(landed, vec![Some(2.0), Some(3.0), Some(2.0)]);
        // A frame never seen landed stays unmatched.
        let short = &samples[..2];
        let landed = land_times(short, &base, &cumulative);
        assert_eq!(landed, vec![Some(2.0), None, Some(2.0)]);
        assert_eq!(land_latencies_ms(&[0.0, 0.5, 1.0], &landed).len(), 2);
    }

    #[test]
    fn littles_law_and_failure_share() {
        assert!(approx(littles_law_wait_ms(500.0, 100_000.0), 5.0));
        assert_eq!(littles_law_wait_ms(3.0, 0.0), 0.0);
        assert_eq!(failed_share(1000, 1000, true), 0.0);
        assert!(approx(failed_share(1000, 990, true), 0.01));
        assert_eq!(failed_share(1000, 1000, false), 1.0);
    }

    #[test]
    fn ledger_remainder_is_end_to_end_minus_the_layer_sum() {
        let rows = vec![
            ("client".to_string(), 40.0),
            ("wire".to_string(), 60.0),
            ("release".to_string(), 100.0),
            ("server".to_string(), 50.0),
        ];
        // 1M reports/s is 1 000 ns per report end to end.
        let ledger = Ledger::new(rows, 1e6);
        assert!(approx(ledger.replay_ns_per_report, 250.0));
        assert!(approx(ledger.unexplained_ns_per_report, 750.0));
        // Parallel lanes can beat the single-thread sum: the remainder
        // goes negative instead of being clamped away.
        let fast = Ledger::new(vec![("release".to_string(), 400.0)], 5e6);
        assert!(approx(fast.unexplained_ns_per_report, -200.0));
        assert!(approx(overhead(2.0, 2.1), 0.05));
    }

    #[test]
    fn exposition_histograms_parse_merge_and_quantile() {
        let text = "# TYPE panda_ingest_flush_ns histogram\n\
                    panda_ingest_flush_ns_bucket{le=\"1000\"} 2\n\
                    panda_ingest_flush_ns_bucket{le=\"2000\"} 9\n\
                    panda_ingest_flush_ns_bucket{le=\"+Inf\"} 10\n\
                    panda_ingest_flush_ns_sum 12000\n\
                    panda_ingest_flush_ns_count 10\n\
                    # TYPE panda_router_ack_prefix_stalls_total counter\n\
                    panda_router_ack_prefix_stalls_total 3\n";
        let a = parse_buckets(text, "panda_ingest_flush_ns");
        assert_eq!(a, vec![(1000, 2), (2000, 9)]);
        assert_eq!(
            parse_counter(text, "panda_router_ack_prefix_stalls_total"),
            Some(3)
        );
        assert_eq!(parse_counter(text, "panda_missing_total"), None);
        let b = vec![(1500, 4), (3000, 6)];
        let merged = merge_buckets(&[a, b]);
        assert_eq!(merged, vec![(1000, 2), (1500, 6), (2000, 13), (3000, 15)]);
        assert_eq!(bucket_quantile(&merged, 0.5), 2000);
        assert_eq!(bucket_quantile(&merged, 0.1), 1000);
        assert_eq!(bucket_quantile(&merged, 1.0), 3000);
        assert_eq!(bucket_quantile(&[], 0.5), 0);
    }

    #[test]
    fn skew_is_max_over_mean() {
        assert!(approx(skew(&[10, 10, 10, 10]), 1.0));
        assert!(approx(skew(&[40, 0, 0, 0]), 4.0));
        assert!(approx(skew(&[]), 1.0));
    }
}
