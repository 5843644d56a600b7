//! Property-based tests for the simulation substrate: physical
//! plausibility invariants that must hold for any parameterization.

use proptest::prelude::*;

use power_sim::components::{MemorySpec, ProcessorSpec, StaticSpec};
use power_sim::dvfs::{Governor, PState};
use power_sim::fan::{FanPolicy, FanSpec};
use power_sim::hierarchy::{MeasurementPoint, PowerHierarchy};
use power_sim::node::NodeSpec;
use power_sim::thermal::{ThermalSpec, ThermalState};
use power_sim::trace::{NodeTrace, SystemTrace};
use power_sim::variability::{AsicSample, VariabilityModel};
use power_sim::vid::VoltagePolicy;
use power_stats::rng::seeded;

fn arb_processor() -> impl Strategy<Value = ProcessorSpec> {
    (10.0..300.0f64, 1.0..80.0f64, 0.0..0.5f64, 0.001..0.02f64).prop_map(
        |(dynamic_w, leakage_w, idle_fraction, tc)| ProcessorSpec {
            dynamic_w,
            leakage_w,
            idle_fraction,
            f_nom_mhz: 2000.0,
            v_nom: 1.0,
            leakage_temp_coeff: tc,
            t_ref_c: 60.0,
        },
    )
}

fn arb_node() -> impl Strategy<Value = NodeSpec> {
    (
        arb_processor(),
        1usize..5,
        1.0..50.0f64,
        1.0..60.0f64,
        0.0..200.0f64,
        0.75..1.0f64,
    )
        .prop_map(
            |(proc_, sockets, mem_idle, mem_active, static_w, psu)| NodeSpec {
                processors: vec![proc_; sockets],
                memory: MemorySpec {
                    idle_w: mem_idle,
                    active_w: mem_active,
                },
                static_power: StaticSpec { watts: static_w },
                fan: FanSpec {
                    max_power_w: 120.0,
                    min_speed: 0.3,
                },
                thermal: ThermalSpec {
                    t_ambient_c: 25.0,
                    r_th_max: 0.1,
                    r_th_min: 0.05,
                    tau_s: 120.0,
                },
                psu_efficiency: psu,
            },
        )
}

fn pstate(f: f64, v: f64) -> PState {
    PState {
        f_mhz: f,
        voltage: VoltagePolicy::Fixed(v),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn node_power_positive_and_monotone_in_utilization(
        node in arb_node(),
        u1 in 0.0..=1.0f64,
        u2 in 0.0..=1.0f64,
    ) {
        let fan = FanPolicy::Pinned { speed: 0.5 };
        let p = pstate(2000.0, 1.0);
        let (lo, hi) = if u1 < u2 { (u1, u2) } else { (u2, u1) };
        let a = node.power(&[], 1.0, lo, &p, &fan, 60.0);
        let b = node.power(&[], 1.0, hi, &p, &fan, 60.0);
        prop_assert!(a.wall_w > 0.0);
        prop_assert!(b.wall_w >= a.wall_w - 1e-9);
        // Wall power always exceeds DC power (PSU loss).
        prop_assert!(a.wall_w >= a.dc_w - 1e-12);
        // Breakdown sums: dc = multiplier*(procs + mem + static) + fan.
        let parts = a.processors_w + a.memory_w + a.static_w;
        prop_assert!((a.dc_w - (parts + a.fan_w)).abs() < 1e-9);
    }

    #[test]
    fn node_power_monotone_in_voltage(node in arb_node(), v in 0.8..1.2f64) {
        let fan = FanPolicy::Pinned { speed: 0.5 };
        let lo = node.power(&[], 1.0, 1.0, &pstate(2000.0, v), &fan, 60.0);
        let hi = node.power(&[], 1.0, 1.0, &pstate(2000.0, v + 0.05), &fan, 60.0);
        prop_assert!(hi.wall_w > lo.wall_w);
    }

    #[test]
    fn node_power_monotone_in_temperature(node in arb_node(), t in 20.0..90.0f64) {
        let fan = FanPolicy::Pinned { speed: 0.5 };
        let p = pstate(2000.0, 1.0);
        let cool = node.power(&[], 1.0, 1.0, &p, &fan, t);
        let hot = node.power(&[], 1.0, 1.0, &p, &fan, t + 5.0);
        prop_assert!(hot.wall_w >= cool.wall_w - 1e-12);
    }

    #[test]
    fn leaky_asics_draw_more(node in arb_node(), lf in 1.0..2.0f64) {
        let fan = FanPolicy::Pinned { speed: 0.5 };
        let p = pstate(2000.0, 1.0);
        let sockets = node.processors.len();
        let leaky = vec![AsicSample { leakage_factor: lf, vid_bin: 0 }; sockets];
        let a = node.power(&[], 1.0, 0.5, &p, &fan, 60.0);
        let b = node.power(&leaky, 1.0, 0.5, &p, &fan, 60.0);
        prop_assert!(b.wall_w >= a.wall_w - 1e-12);
    }

    #[test]
    fn thermal_state_bounded_and_convergent(
        heat in 0.0..1000.0f64,
        speed in 0.0..=1.0f64,
        dt in 0.1..500.0f64,
    ) {
        let spec = ThermalSpec {
            t_ambient_c: 25.0,
            r_th_max: 0.1,
            r_th_min: 0.04,
            tau_s: 120.0,
        };
        let target = spec.steady_temp(heat, speed);
        let mut st = ThermalState::at_ambient(&spec);
        for _ in 0..200 {
            let before = st.temp_c;
            st.step(&spec, heat, speed, dt);
            // Never overshoots past the target.
            if before <= target {
                prop_assert!(st.temp_c <= target + 1e-9);
                prop_assert!(st.temp_c >= before - 1e-9);
            }
        }
        // Convergence is only guaranteed after several time constants.
        if 200.0 * dt >= 10.0 * spec.tau_s {
            prop_assert!((st.temp_c - target).abs() < 1.0);
        }
    }

    #[test]
    fn fan_power_cubic_monotone(s1 in 0.0..=1.0f64, s2 in 0.0..=1.0f64) {
        let fan = FanSpec { max_power_w: 160.0, min_speed: 0.2 };
        let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(fan.power(lo) <= fan.power(hi) + 1e-12);
        prop_assert!(fan.power(hi) <= 160.0 + 1e-12);
    }

    #[test]
    fn hierarchy_conversion_consistent(
        w in 1.0..1e7f64,
        psu in 0.8..1.0f64,
        pdu in 0.9..1.0f64,
    ) {
        let h = PowerHierarchy {
            psu_efficiency: psu,
            pdu_efficiency: pdu,
            ups_efficiency: 0.95,
            transformer_efficiency: 0.985,
        };
        // Round trip through any pair of points is the identity.
        for from in [MeasurementPoint::NodeDc, MeasurementPoint::PduInput] {
            for to in [MeasurementPoint::NodeWall, MeasurementPoint::FacilityInput] {
                let rt = h.convert(h.convert(w, from, to), to, from);
                prop_assert!((rt - w).abs() < 1e-6 * w);
            }
        }
        // Moving upstream always increases the reading.
        let up = h.convert(w, MeasurementPoint::NodeDc, MeasurementPoint::FacilityInput);
        prop_assert!(up > w);
    }

    #[test]
    fn variability_samples_in_modeled_ranges(
        leak_sigma in 0.0..0.5f64,
        node_sigma in 0.0..0.2f64,
        bins in 1u8..12,
        seed in 0u64..500,
    ) {
        let m = VariabilityModel {
            leakage_sigma: leak_sigma,
            node_sigma,
            vid_bins: bins,
            vid_leakage_corr: 0.5,
        };
        m.validate().unwrap();
        let mut rng = seeded(seed);
        for _ in 0..50 {
            let a = m.sample_asic(&mut rng);
            prop_assert!(a.vid_bin < bins);
            prop_assert!(a.leakage_factor > 0.0);
            // 4-sigma clamp bounds the factor.
            prop_assert!(a.leakage_factor <= (4.0 * leak_sigma).exp() + 1e-9);
            let mult = m.sample_node_multiplier(&mut rng);
            prop_assert!(mult >= 0.1);
            prop_assert!(mult <= 1.0 + 4.0 * node_sigma + 1e-9);
        }
    }

    #[test]
    fn prefix_sum_window_queries_match_naive_scan(
        watts in prop::collection::vec(0.0..5_000.0f64, 1..300),
        t0 in -120.0..120.0f64,
        dt in 0.1..90.0f64,
        // Window endpoints in *trace-relative* fractions so the cases
        // cover interior windows, partial-overlap edges, full clipping,
        // and fully-outside windows alike.
        fa in -0.5..1.5f64,
        fb in -0.5..1.5f64,
    ) {
        let trace = SystemTrace::new(t0, dt, watts.clone()).unwrap();
        let span = trace.len() as f64 * dt;
        let (lo, hi) = if fa < fb { (fa, fb) } else { (fb, fa) };
        let from = t0 + lo * span;
        let to = t0 + hi * span;

        let close = |fast: f64, slow: f64| {
            (fast - slow).abs() <= 1e-9 * (1.0 + slow.abs())
        };
        match (trace.window_average(from, to), trace.window_average_naive(from, to)) {
            (Ok(fast), Ok(slow)) => prop_assert!(
                close(fast, slow),
                "average: prefix {fast} vs naive {slow} on [{from}, {to})"
            ),
            (fast, slow) => prop_assert_eq!(
                fast.is_err(),
                slow.is_err(),
                "average error disagreement on [{}, {})",
                from,
                to
            ),
        }
        match (trace.window_energy(from, to), trace.window_energy_naive(from, to)) {
            (Ok(fast), Ok(slow)) => prop_assert!(
                close(fast, slow),
                "energy: prefix {fast} vs naive {slow} on [{from}, {to})"
            ),
            (fast, slow) => prop_assert_eq!(
                fast.is_err(),
                slow.is_err(),
                "energy error disagreement on [{}, {})",
                from,
                to
            ),
        }

        // Per-node queries: split the same samples across two nodes.
        let nodes = NodeTrace::new(
            vec![0, 1],
            t0,
            dt,
            vec![watts.clone(), watts.iter().rev().copied().collect()],
        )
        .unwrap();
        match (
            nodes.node_window_averages(from, to),
            nodes.node_window_averages_naive(from, to),
        ) {
            (Ok(fast), Ok(slow)) => {
                prop_assert_eq!(fast.len(), slow.len());
                for (f, s) in fast.iter().zip(&slow) {
                    prop_assert!(close(*f, *s), "node average: {f} vs {s}");
                }
            }
            (fast, slow) => prop_assert_eq!(fast.is_err(), slow.is_err()),
        }
    }

    #[test]
    fn governor_schedule_picks_latest_entry(t in -100.0..10_000.0f64) {
        let g = Governor::Schedule(vec![
            (0.0, pstate(1000.0, 0.9)),
            (100.0, pstate(2000.0, 1.0)),
            (200.0, pstate(500.0, 0.8)),
        ]);
        let p = g.pstate(t, 1.0);
        if t < 100.0 {
            prop_assert_eq!(p.f_mhz, 1000.0);
        } else if t < 200.0 {
            prop_assert_eq!(p.f_mhz, 2000.0);
        } else {
            prop_assert_eq!(p.f_mhz, 500.0);
        }
    }
}
