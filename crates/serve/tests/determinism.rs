//! Multi-stream determinism suite (PR 10 satellite): S streams interleaved
//! through the sharded service must produce per-stream `CvOptimum`
//! sequences **bit-identical** to sequential single-stream replay.
//!
//! The sequential oracle is [`GlobalLockService`] — a plain stream map
//! driven synchronously, which by construction is exactly "driving that
//! stream's `SlidingWindowSelector` sequentially" (it calls `push` per
//! arrival and re-selects at every close, the optimum the service's close
//! returns). With conflation off the sharded service must match it
//! *operation for operation*: same fired optima in order, same final
//! optimum, same counters — except that a close right after a due
//! re-selection reuses that optimum in the service, which then counts one
//! re-selection fewer than the oracle. With conflation on,
//! intermediate firings may merge but the close-time optimum — computed
//! over the identical surviving window — must still match bit-for-bit.
//!
//! A proptest then interleaves arrivals with stream create/close (plus
//! non-finite arrivals and requests to unopened streams) and asserts the
//! same service/oracle agreement on every close.

use proptest::prelude::*;

use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::util::SplitMix64;
use kcv_serve::{BandwidthService, GlobalLockService, ServeConfig, StreamId, StreamOutcome};

fn grid(k: usize) -> BandwidthGrid {
    BandwidthGrid::log(0.01, 0.5, k).unwrap()
}

fn paper_arrival(rng: &mut SplitMix64) -> (f64, f64) {
    let x = rng.next_f64();
    let y = 0.5 * x + 10.0 * x * x + 0.5 * rng.next_f64();
    (x, y)
}

/// Bit-level equality of two outcomes (PartialEq plus explicit bandwidth
/// bit comparison, so a `0.1 + 0.2`-style drift cannot hide behind an
/// approximate float compare) of a stream re-selecting every `cadence`
/// arrivals.
fn assert_outcomes_bit_identical(
    served: &StreamOutcome,
    oracle: &StreamOutcome,
    cadence: u64,
    ctx: &str,
) {
    assert_eq!(served.arrivals, oracle.arrivals, "{ctx}: arrivals");
    assert_eq!(served.rejected, oracle.rejected, "{ctx}: rejected");
    // Arrivals ending on a cadence boundary fired a re-selection over the
    // final window: the service's close reuses its optimum.
    let reused = u64::from(oracle.arrivals > 0 && oracle.arrivals.is_multiple_of(cadence));
    assert_eq!(
        served.reselects + reused,
        oracle.reselects,
        "{ctx}: reselects"
    );
    assert_eq!(
        served.optima.len(),
        oracle.optima.len(),
        "{ctx}: fired count"
    );
    for (i, (s, o)) in served.optima.iter().zip(&oracle.optima).enumerate() {
        assert_eq!(s.index, o.index, "{ctx}: optimum {i} index");
        assert_eq!(
            s.bandwidth.to_bits(),
            o.bandwidth.to_bits(),
            "{ctx}: optimum {i} bandwidth not bit-identical"
        );
        assert_eq!(
            s.score.to_bits(),
            o.score.to_bits(),
            "{ctx}: optimum {i} score"
        );
        assert_eq!(s.included, o.included, "{ctx}: optimum {i} included");
    }
    match (&served.final_optimum, &oracle.final_optimum) {
        (Some(s), Some(o)) => {
            assert_eq!(
                s.bandwidth.to_bits(),
                o.bandwidth.to_bits(),
                "{ctx}: final bandwidth not bit-identical"
            );
            assert_eq!(s.index, o.index, "{ctx}: final index");
            assert_eq!(s.included, o.included, "{ctx}: final included");
        }
        (None, None) => {}
        (s, o) => panic!("{ctx}: final presence diverged: {s:?} vs {o:?}"),
    }
}

#[test]
fn interleaved_streams_match_sequential_replay_under_2_4_8_shards() {
    const STREAMS: u64 = 10;
    const ARRIVALS: usize = 300;
    for shards in [2usize, 4, 8] {
        let config = ServeConfig {
            conflate: false,
            log_optima: true,
            ..ServeConfig::new(shards, 64, 25)
        };
        let service = BandwidthService::new(Epanechnikov, grid(15), config.clone()).unwrap();
        let oracle = GlobalLockService::new(Epanechnikov, grid(15), config).unwrap();

        for id in 0..STREAMS {
            service.open(id).unwrap();
            oracle.open(id).unwrap();
        }
        // One RNG per stream so the arrival sequence is a property of the
        // stream, not of the interleaving.
        let mut rngs: Vec<SplitMix64> = (0..STREAMS).map(|id| SplitMix64::new(100 + id)).collect();
        for round in 0..ARRIVALS {
            // Round-robin, reversing the stream order on odd rounds so the
            // shard queues see shifting interleavings.
            for slot in 0..STREAMS {
                let id = if round % 2 == 1 {
                    STREAMS - 1 - slot
                } else {
                    slot
                };
                let (x, y) = paper_arrival(&mut rngs[id as usize]);
                service.send_blocking(id, x, y).unwrap();
                oracle.send(id, x, y).unwrap();
            }
        }
        // Close half explicitly, leave the rest to shutdown.
        for id in 0..STREAMS / 2 {
            let served = service.close(id).unwrap();
            let expected = oracle.close(id).unwrap();
            assert_eq!(served.shard, kcv_serve::shard_of(id, shards));
            assert_outcomes_bit_identical(
                &served.outcome,
                &expected,
                25,
                &format!("shards={shards} stream={id} (explicit close)"),
            );
        }
        let report = service.shutdown();
        let oracle_rest = oracle.shutdown();
        assert_eq!(report.streams.len(), (STREAMS / 2) as usize);
        assert_eq!(report.streams.len(), oracle_rest.len());
        for (served, (oid, expected)) in report.streams.iter().zip(&oracle_rest) {
            assert_eq!(served.stream, *oid);
            assert_outcomes_bit_identical(
                &served.outcome,
                expected,
                25,
                &format!("shards={shards} stream={oid} (shutdown close)"),
            );
        }
        assert_eq!(report.unknown_arrivals, 0);
        assert_eq!(
            report.latencies_nanos.len(),
            (STREAMS as usize) * ARRIVALS,
            "every applied arrival must contribute one latency sample"
        );
    }
}

#[test]
fn conflation_preserves_the_final_bandwidth_and_saves_reselects() {
    const STREAMS: u64 = 6;
    const ARRIVALS: usize = 400;
    let conflated = ServeConfig {
        conflate: true,
        log_optima: true,
        ..ServeConfig::new(3, 96, 20)
    };
    let exact = ServeConfig {
        conflate: false,
        ..conflated.clone()
    };
    let service = BandwidthService::new(Epanechnikov, grid(12), conflated).unwrap();
    let oracle = GlobalLockService::new(Epanechnikov, grid(12), exact).unwrap();
    for id in 0..STREAMS {
        service.open(id).unwrap();
        oracle.open(id).unwrap();
    }
    let mut rngs: Vec<SplitMix64> = (0..STREAMS).map(|id| SplitMix64::new(500 + id)).collect();
    // Bursty per-stream chunks — the traffic shape conflation exists for.
    const CHUNK: usize = 80;
    for chunk_start in (0..ARRIVALS).step_by(CHUNK) {
        for id in 0..STREAMS {
            for _ in chunk_start..(chunk_start + CHUNK).min(ARRIVALS) {
                let (x, y) = paper_arrival(&mut rngs[id as usize]);
                service.send_blocking(id, x, y).unwrap();
                oracle.send(id, x, y).unwrap();
            }
        }
    }
    let report = service.shutdown();
    let oracle_outcomes = oracle.shutdown();
    for (served, (oid, expected)) in report.streams.iter().zip(&oracle_outcomes) {
        assert_eq!(served.stream, *oid);
        let s = served.outcome.final_optimum.expect("served final");
        let o = expected.final_optimum.expect("oracle final");
        assert_eq!(
            s.bandwidth.to_bits(),
            o.bandwidth.to_bits(),
            "stream {oid}: conflated final bandwidth diverged"
        );
        assert_eq!(served.outcome.arrivals, expected.arrivals);
        assert!(
            served.outcome.reselects <= expected.reselects,
            "stream {oid}: conflation must not re-select more often \
             ({} vs {})",
            served.outcome.reselects,
            expected.reselects
        );
    }
}

/// One step of the interleaving proptest below.
#[derive(Debug, Clone, Copy)]
enum Op {
    Open(u8),
    Arrival(u8, f64, f64),
    BadArrival(u8),
    Close(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0u8..5, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(kind, stream, x, y)| match kind {
        0 => Op::Open(stream),
        1 => Op::Arrival(stream, x, 0.5 * x + 10.0 * x * x + 0.5 * y),
        2 => Op::BadArrival(stream),
        _ => Op::Close(stream),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arrivals interleaved with stream create/close (and hostile inputs:
    /// NaN arrivals, requests to unopened streams) leave the sharded
    /// service and the sequential oracle in bit-identical agreement on
    /// every close outcome.
    #[test]
    fn random_interleavings_of_create_arrive_close_agree_with_the_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        shards in 1usize..5,
    ) {
        let config = ServeConfig {
            conflate: false,
            log_optima: true,
            queue_capacity: 256,
            ..ServeConfig::new(shards, 16, 5)
        };
        let service = BandwidthService::new(Epanechnikov, grid(8), config.clone()).unwrap();
        let oracle = GlobalLockService::new(Epanechnikov, grid(8), config).unwrap();
        let mut expected_unknown = 0u64;
        let mut open: std::collections::HashSet<u8> = std::collections::HashSet::new();
        for op in &ops {
            match *op {
                Op::Open(s) => {
                    let a = service.open(StreamId::from(s));
                    let b = oracle.open(StreamId::from(s));
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    prop_assert_eq!(a.is_ok(), open.insert(s));
                }
                Op::Arrival(s, x, y) => {
                    service.send_blocking(StreamId::from(s), x, y).unwrap();
                    let _ = oracle.send(StreamId::from(s), x, y);
                    if !open.contains(&s) {
                        expected_unknown += 1;
                    }
                }
                Op::BadArrival(s) => {
                    service.send_blocking(StreamId::from(s), f64::NAN, 0.0).unwrap();
                    let _ = oracle.send(StreamId::from(s), f64::NAN, 0.0);
                    if !open.contains(&s) {
                        expected_unknown += 1;
                    }
                }
                Op::Close(s) => {
                    let a = service.close(StreamId::from(s));
                    let b = oracle.close(StreamId::from(s));
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(served), Ok(expected)) = (a, b) {
                        assert_outcomes_bit_identical(
                            &served.outcome,
                            &expected,
                            5,
                            &format!("prop close stream={s}"),
                        );
                        open.remove(&s);
                    }
                }
            }
        }
        let report = service.shutdown();
        let oracle_rest = oracle.shutdown();
        prop_assert_eq!(report.streams.len(), oracle_rest.len());
        for (served, (oid, expected)) in report.streams.iter().zip(&oracle_rest) {
            prop_assert_eq!(served.stream, *oid);
            assert_outcomes_bit_identical(
                &served.outcome,
                expected,
                5,
                &format!("prop shutdown stream={oid}"),
            );
        }
        prop_assert_eq!(report.unknown_arrivals, expected_unknown);
    }
}
