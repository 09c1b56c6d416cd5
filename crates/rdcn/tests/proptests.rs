//! Property tests on the RDCN substrate: schedule total-coverage laws,
//! rotor matching completeness, VOQ conservation, analytic-curve
//! monotonicity, and notification-model determinism. Runs on the in-repo
//! `testkit` harness.

use rdcn::schedule::rotor;
use rdcn::{analytic, NetConfig, NotifyConfig, NotifyModel, Schedule, Voq, VoqConfig};
use simcore::{DetRng, SimDuration, SimTime};
use tcp::{Direction, FlowId, Segment};
use testkit::prop::{range, tuple2, tuple3, tuple4, vec_of, Gen};
use testkit::{tk_assert, tk_assert_eq};
use wire::TdnId;

fn arb_schedule() -> Gen<Schedule> {
    tuple3(
        range(1u64..1_000), // day_len us
        range(1u64..200),   // night_len us
        vec_of(range(0u8..4), 1..10),
    )
    .map(|(d, n, days)| Schedule {
        day_len: SimDuration::from_micros(d),
        night_len: SimDuration::from_micros(n),
        days: days.into_iter().map(TdnId).collect(),
    })
}

testkit::props! {
    // phase_at and day_number agree at every instant: the phase's day
    // index matches the schedule layout, and phase ends are in the
    // future.
    fn schedule_phase_consistency(
        input in tuple2(arb_schedule(), range(0u64..10_000_000))
    ) {
        let (s, t_us) = input;
        let t = SimTime::from_micros(t_us);
        let phase = s.phase_at(t);
        tk_assert!(phase.ends() > t);
        match phase {
            rdcn::Phase::Day { index, tdn, started, ends } => {
                tk_assert!(started <= t);
                tk_assert_eq!(ends.saturating_since(started), s.day_len);
                tk_assert_eq!(s.days[index], tdn);
            }
            rdcn::Phase::Night { next_tdn, ends } => {
                // The announced TDN is the one actually active right after.
                let after = s.phase_at(ends);
                tk_assert_eq!(after.active(), Some(next_tdn));
            }
        }
    }

    // Per-TDN uptimes sum to the total active time of a week.
    fn schedule_uptime_partition(s in arb_schedule()) {
        let total: u64 = (0..s.num_tdns())
            .map(|i| s.uptime_per_week(TdnId(i as u8)).as_nanos())
            .sum();
        tk_assert_eq!(total, s.day_len.as_nanos() * s.days.len() as u64);
    }

    // Rotor matchings connect every pair exactly once for any even rack
    // count.
    fn rotor_complete_coverage(half in range(1usize..12)) {
        let n = half * 2;
        let ms = rotor::matchings(n);
        tk_assert_eq!(ms.len(), n - 1);
        let mut count = vec![vec![0u32; n]; n];
        for m in &ms {
            for &(a, b) in m {
                count[a][b] += 1;
                count[b][a] += 1;
            }
        }
        for (a, row) in count.iter().enumerate() {
            for (b, &c) in row.iter().enumerate() {
                if a != b {
                    tk_assert_eq!(c, 1, "pair ({},{})", a, b);
                }
            }
        }
    }

    // VOQ conservation: accepted = dequeued + still queued, per-class
    // occupancy never exceeds the cap, and FIFO order holds per class.
    fn voq_conservation(
        input in tuple2(
            vec_of(tuple2(range(0u8..3), range(0u8..2)), 1..200),
            range(1usize..20),
        )
    ) {
        let (ops, cap) = input;
        let mut v = Voq::new("p", VoqConfig { cap_pkts: cap, ecn_threshold: None });
        let mut accepted = 0u64;
        let mut dequeued = 0u64;
        let mut seq_counter = 0u32;
        let mut last_out: std::collections::BTreeMap<Option<TdnId>, u32> =
            std::collections::BTreeMap::new();
        let mut t = 0u64;
        for (op, tdn) in ops {
            t += 1;
            let now = SimTime::from_micros(t);
            match op {
                0 | 1 => {
                    let mut s = Segment::new(FlowId(0), Direction::DataPath);
                    s.len = 100;
                    s.seq = tcp::SeqNum(seq_counter);
                    seq_counter += 1;
                    s.pin = (op == 1).then_some(TdnId(tdn));
                    if v.enqueue(now, s) {
                        accepted += 1;
                    }
                }
                _ => {
                    if let Some(s) = v.dequeue_eligible(now, Some(TdnId(tdn))) {
                        dequeued += 1;
                        // FIFO within the segment's own class.
                        let k = s.pin;
                        if let Some(&prev) = last_out.get(&k) {
                            tk_assert!(s.seq.0 > prev, "per-class FIFO");
                        }
                        last_out.insert(k, s.seq.0);
                    }
                }
            }
            tk_assert!(v.len() as u64 == accepted - dequeued);
        }
        tk_assert_eq!(v.enqueued, accepted);
    }

    // The analytic optimal curve is monotone and bounded by the fastest
    // TDN's rate.
    fn optimal_curve_monotone(
        input in tuple2(range(0u64..5_000), range(1u64..5_000))
    ) {
        let (t1, dt) = input;
        let cfg = NetConfig::paper_baseline();
        let a = analytic::optimal_bytes(&cfg, SimTime::from_micros(t1));
        let b = analytic::optimal_bytes(&cfg, SimTime::from_micros(t1 + dt));
        tk_assert!(b >= a);
        let max_rate_bytes_per_us = 100_000_000_000.0 / 8.0 / 1e6;
        tk_assert!(b - a <= (dt as f64 + 1.0) * max_rate_bytes_per_us);
    }

    // Fault injection is a pure function of (plan, seed): two injectors
    // built from the same plan and the same forked stream agree verdict
    // by verdict, and their logs, stats and digests are identical. A
    // different seed must diverge whenever any probabilistic fault is
    // armed and enough notifications flow to make collision unlikely.
    fn fault_injector_determinism(
        input in tuple3(
            range(0u64..1_000),                       // seed
            tuple3(range(0u32..101), range(0u32..101), range(0u32..101)),
            vec_of(tuple2(range(0u64..64), range(0usize..8)), 1..120),
        )
    ) {
        let (seed, (loss_pct, dup_pct, delay_pct), ops) = input;
        let plan = rdcn::FaultPlan {
            notify_loss: f64::from(loss_pct) / 100.0,
            notify_duplicate: f64::from(dup_pct) / 100.0,
            notify_extra_delay: Some((
                f64::from(delay_pct) / 100.0,
                SimDuration::from_micros(5),
            )),
            link_failure: Some(rdcn::LinkFailure {
                day: 10,
                at_fraction: 0.5,
                outage_days: 4,
            }),
            eps_burst: Some(rdcn::EpsBurst {
                start: SimTime::from_micros(100),
                len: SimDuration::from_micros(200),
                drop_rate: f64::from(loss_pct) / 100.0,
                corrupt_rate: f64::from(dup_pct) / 100.0,
            }),
            ..rdcn::FaultPlan::default()
        };
        let mk = || {
            rdcn::FaultInjector::new(
                plan.clone(),
                DetRng::new(seed).fork(rdcn::FAULT_STREAM_LABEL),
            )
        };
        let (mut a, mut b) = (mk(), mk());
        for &(day, flow) in &ops {
            let side = (day % 2) as u8;
            tk_assert_eq!(a.on_notify(day, flow, side), b.on_notify(day, flow, side));
            tk_assert_eq!(a.schedule_day(day), b.schedule_day(day));
            tk_assert_eq!(
                a.day_fate(day, TdnId((day % 2) as u8)),
                b.day_fate(day, TdnId((day % 2) as u8))
            );
            let t = SimTime::from_micros(day * 7);
            tk_assert_eq!(a.on_transit(t), b.on_transit(t));
        }
        tk_assert_eq!(a.books().log(), b.books().log());
        tk_assert_eq!(a.books().stats(), b.books().stats());
        tk_assert_eq!(a.books().digest(), b.books().digest());

        // A different seed draws a different fault stream. Only check
        // when the plan is probabilistic enough that equality would be
        // a miracle (many ops, mid-range rates).
        if (20..=80).contains(&loss_pct) && ops.len() >= 60 {
            let mut c = rdcn::FaultInjector::new(
                plan.clone(),
                DetRng::new(seed + 1).fork(rdcn::FAULT_STREAM_LABEL),
            );
            for &(day, flow) in &ops {
                let _ = c.on_notify(day, flow, (day % 2) as u8);
                let _ = c.schedule_day(day);
                let _ = c.day_fate(day, TdnId((day % 2) as u8));
                let _ = c.on_transit(SimTime::from_micros(day * 7));
            }
            tk_assert!(
                c.books().digest() != a.books().digest(),
                "independent seeds produced identical fault streams"
            );
        }
    }

    // The data-path impairment injector is a pure function of
    // (plan, seed): two injectors built from the same plan and the same
    // forked stream agree verdict by verdict, and their logs, stats and
    // digests are identical — the reproducibility contract the chaos
    // soak's shrinking depends on. A different seed must diverge
    // whenever the rates are mid-range and enough segments flow.
    fn impair_injector_determinism(
        input in tuple3(
            range(0u64..1_000),                       // seed
            tuple4(
                range(0u32..101),                     // loss %
                range(0u32..101),                     // reorder %
                range(0u32..101),                     // duplicate %
                range(0u32..101),                     // corrupt %
            ),
            vec_of(range(1u64..10_000), 1..200),      // service times, us
        )
    ) {
        let (seed, (loss, reorder, dup, corrupt), times) = input;
        let plan = rdcn::ImpairPlan {
            loss_rate: f64::from(loss) / 100.0,
            reorder_rate: f64::from(reorder) / 100.0,
            reorder_delay: SimDuration::from_micros(120),
            duplicate_rate: f64::from(dup) / 100.0,
            corrupt_rate: f64::from(corrupt) / 100.0,
        };
        let mk = |s: u64| {
            rdcn::ImpairInjector::new(
                plan.clone(),
                DetRng::new(s).fork(rdcn::IMPAIR_STREAM_LABEL),
            )
        };
        let (mut a, mut b) = (mk(seed), mk(seed));
        for &t_us in &times {
            let t = SimTime::from_micros(t_us);
            tk_assert_eq!(a.on_wire(t), b.on_wire(t));
        }
        tk_assert_eq!(a.books().log(), b.books().log());
        tk_assert_eq!(a.books().stats(), b.books().stats());
        tk_assert_eq!(a.books().digest(), b.books().digest());

        // An inert plan never draws: the verdict stream is all Pass and
        // the log digest equals a fresh injector's.
        let mut inert = rdcn::ImpairInjector::new(
            rdcn::ImpairPlan::none(),
            DetRng::new(seed).fork(rdcn::IMPAIR_STREAM_LABEL),
        );
        for &t_us in &times {
            tk_assert_eq!(
                inert.on_wire(SimTime::from_micros(t_us)),
                rdcn::ImpairVerdict::Pass
            );
        }
        tk_assert_eq!(inert.books().stats().total(), 0);

        // A different seed draws a different impairment stream — only
        // checked when rates make coincidence astronomically unlikely.
        if (20..=80).contains(&loss) && times.len() >= 60 {
            let mut c = mk(seed + 1);
            for &t_us in &times {
                let _ = c.on_wire(SimTime::from_micros(t_us));
            }
            tk_assert!(
                c.books().digest() != a.books().digest(),
                "independent seeds produced identical impairment streams"
            );
        }
    }

    // New with the testkit port: the §5.4 notification model is
    // deterministic per seed (same seed ⇒ identical component samples),
    // its components always sum to the reported total, and the optimized
    // configuration never adds push fan-out cost.
    fn notify_model_deterministic(
        input in tuple3(range(0u64..1_000), range(0usize..16), range(0u8..2))
    ) {
        let (seed, flow_idx, which) = input;
        let cfg = if which == 0 {
            NotifyConfig::optimized()
        } else {
            NotifyConfig::unoptimized()
        };
        let model = NotifyModel::new(cfg);
        let mut r1 = DetRng::new(seed);
        let mut r2 = DetRng::new(seed);
        let a = model.sample(&mut r1, flow_idx);
        let b = model.sample(&mut r2, flow_idx);
        tk_assert_eq!(a.construction, b.construction);
        tk_assert_eq!(a.fanout, b.fanout);
        tk_assert_eq!(a.transit, b.transit);
        tk_assert_eq!(a.total(), a.construction + a.fanout + a.transit);
        if which == 0 {
            // Pull model: fan-out cost is flow-count independent and tiny.
            tk_assert!(a.fanout < simcore::SimDuration::from_micros(1));
        }
    }
}
