//! Calibrated presets of the paper's test systems.
//!
//! Each preset pairs a [`ClusterSpec`] with a workload, a metering scope and
//! the published target numbers it is calibrated against. Two families:
//!
//! * **Trace presets** (Figure 1 / Table 2): Colosse, Sequoia-25,
//!   Piz Daint, L-CSC — calibrated so the simulated whole-system HPL trace
//!   reproduces the published core-phase power and the first-20% / last-20%
//!   segment ratios;
//! * **Node-variability presets** (Table 3 / Table 4 / Figure 2):
//!   Calcul Québec, CEA Fat, CEA Thin, LRZ, Titan (GPUs), TU Dresden —
//!   calibrated so per-node time-averaged power matches the published mean
//!   and coefficient of variation.
//!
//! Calibration is *constructive*: [`NodeBudget`] solves the component split
//! from the published wall power, the dynamic/static ratio `a` (fitted
//! analytically from the segment ratios — see `DESIGN.md`), and the
//! workload's mean core utilization; [`NodeBudget::variability_for_cv`]
//! solves the manufacturing-spread parameters from the published
//! sigma/mu. The numbers in the constructors below are therefore the
//! *published* values plus a handful of shape constants, not hand-tweaked
//! component wattages.

use crate::cluster::{Cluster, ClusterSpec};
use crate::components::{MemorySpec, ProcessorSpec, StaticSpec};
use crate::dvfs::{Governor, PState};
use crate::engine::MeterScope;
use crate::fan::{FanPolicy, FanSpec};
use crate::node::NodeSpec;
use crate::thermal::ThermalSpec;
use crate::variability::VariabilityModel;
use crate::vid::{VidTable, VoltagePolicy};
use power_workload::{
    Firestarter, Hpl, HplShape, HplVariant, LoadBalance, MPrime, RodiniaCfd, RunPhases,
    WorkloadSpec,
};
use std::sync::OnceLock;

/// Published numbers a preset is calibrated against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperTargets {
    /// Machine size `N` used in the paper's statistics (Table 4) or trace.
    pub population: usize,
    /// HPL runtime in hours (Table 2).
    pub runtime_hours: Option<f64>,
    /// Core-phase average power in kW (Table 2).
    pub core_kw: Option<f64>,
    /// First-20%-of-core average power in kW (Table 2).
    pub first20_kw: Option<f64>,
    /// Last-20%-of-core average power in kW (Table 2).
    pub last20_kw: Option<f64>,
    /// Per-node (or per-component) mean power in W (Table 4).
    pub mean_node_w: Option<f64>,
    /// Per-node standard deviation in W (Table 4).
    pub sigma_node_w: Option<f64>,
}

/// A fully specified, calibrated test system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemPreset {
    /// System name as used in the paper.
    pub name: &'static str,
    /// The machine.
    pub cluster_spec: ClusterSpec,
    /// The workload the paper ran on it (a campaign cell may name another).
    pub workload: WorkloadSpec,
    /// Load distribution (balanced for every paper system).
    pub balance: LoadBalance,
    /// Number of components the paper actually metered (Table 3).
    pub measured_nodes: usize,
    /// What the meters covered.
    pub scope: MeterScope,
    /// Published calibration targets.
    pub targets: PaperTargets,
}

impl SystemPreset {
    /// Scales the machine to `n` nodes (for tests and quick runs); the
    /// per-node model and targets are unchanged.
    pub fn with_total_nodes(mut self, n: usize) -> Self {
        self.cluster_spec.total_nodes = n;
        self.measured_nodes = self.measured_nodes.min(n);
        self
    }

    /// The four Figure 1 / Table 2 trace systems.
    pub fn trace_presets() -> Vec<SystemPreset> {
        catalog()[..TRACE.len()].to_vec()
    }

    /// The six Table 3 / Table 4 node-variability systems.
    pub fn variability_presets() -> Vec<SystemPreset> {
        catalog()[TRACE.len()..][..VARIABILITY.len()].to_vec()
    }

    /// Post-paper accelerator-era systems (not part of the Table 2/4
    /// calibration set): Summit, the POWER9+GPU machine whose on-chip OCC
    /// meters motivate the `power-accel` extension.
    pub fn accel_presets() -> Vec<SystemPreset> {
        catalog()[TRACE.len() + VARIABILITY.len()..].to_vec()
    }

    /// All registered systems: the four trace presets, the six
    /// variability presets, then the accelerator-era presets.
    pub fn all_presets() -> Vec<SystemPreset> {
        catalog().to_vec()
    }

    /// Looks a preset up by name, ignoring case, whitespace and
    /// punctuation, so scenario files can say `"piz_daint"`, `"l-csc"` or
    /// `"CEA (Fat)"` interchangeably.
    ///
    /// The presets are built once per process into a catalog, which each
    /// lookup (and each list above) clones from. Building them is not free
    /// (HPL presets integrate utilization, variability presets draw their
    /// nodes), so a lookup per campaign task must not rebuild them all. A
    /// constructor is a pure function of no arguments, so the clone equals
    /// a fresh build field for field, and the caller owns it: changing one
    /// lookup's result (say, [`SystemPreset::with_total_nodes`]) leaves
    /// the catalog and every later lookup as built.
    pub fn by_name(name: &str) -> Option<SystemPreset> {
        let want = normalize_name(name);
        catalog()
            .iter()
            .find(|p| normalize_name(p.name) == want)
            .cloned()
    }

    /// The names [`SystemPreset::by_name`] resolves, in
    /// [`SystemPreset::all_presets`] order, read from the same catalog.
    pub fn names() -> Vec<&'static str> {
        catalog().iter().map(|p| p.name).collect()
    }
}

const TRACE: [fn() -> SystemPreset; 4] = [colosse, sequoia25, piz_daint, lcsc];
const VARIABILITY: [fn() -> SystemPreset; 6] =
    [calcul_quebec, cea_fat, cea_thin, lrz, titan, tu_dresden];

/// Every preset, built once per process.
fn catalog() -> &'static [SystemPreset] {
    static CATALOG: OnceLock<Vec<SystemPreset>> = OnceLock::new();
    CATALOG.get_or_init(|| {
        TRACE
            .iter()
            .chain(&VARIABILITY)
            .map(|f| f())
            .chain([summit()])
            .collect()
    })
}

/// Case-fold a system name to lowercase ASCII alphanumerics (`é` → `e`)
/// so lookups tolerate spelling variants.
fn normalize_name(name: &str) -> String {
    name.chars()
        .filter_map(|c| match c {
            'é' | 'É' => Some('e'),
            c if c.is_ascii_alphanumeric() => Some(c.to_ascii_lowercase()),
            _ => None,
        })
        .collect()
}

/// Constructive node-model calibration.
///
/// Models per-node DC power as `P(u) = C0 + C1 * u` and solves the
/// component split from:
///
/// * `wall_w` — published per-node wall power at mean core utilization;
/// * `a` — dynamic/static ratio `C1 * u_mean / C0`, fitted analytically
///   from the published first/last segment ratios;
/// * `mean_util` — the workload's mean core utilization.
#[derive(Debug, Clone, Copy)]
pub struct NodeBudget {
    /// Target per-node wall power at mean core utilization.
    pub wall_w: f64,
    /// Dynamic/static ratio `a = C1 * mean_util / C0`.
    pub a: f64,
    /// Mean core utilization of the workload.
    pub mean_util: f64,
    /// Processor sockets / boards per node.
    pub sockets: usize,
    /// PSU efficiency.
    pub psu_eff: f64,
    /// Fan power as a fraction of `C0`.
    pub fan_frac: f64,
    /// Leakage as a fraction of `C0`.
    pub leak_frac: f64,
    /// Idle (always-on) fraction of processor dynamic power.
    pub idle_fraction: f64,
    /// Nominal frequency the governor will pin (MHz).
    pub f_nom_mhz: f64,
    /// Nominal voltage the governor will pin (V).
    pub v_nom: f64,
    /// Leakage temperature coefficient per kelvin.
    pub leakage_temp_coeff: f64,
    /// Thermal time constant.
    pub tau_s: f64,
}

impl NodeBudget {
    /// Reasonable defaults for a CPU system; override fields as needed.
    pub fn cpu(wall_w: f64, a: f64, mean_util: f64, sockets: usize) -> Self {
        NodeBudget {
            wall_w,
            a,
            mean_util,
            sockets,
            psu_eff: 0.91,
            fan_frac: 0.05,
            leak_frac: 0.20,
            idle_fraction: 0.12,
            f_nom_mhz: 2700.0,
            v_nom: 1.0,
            leakage_temp_coeff: 0.004,
            tau_s: 180.0,
        }
    }

    /// Total DC power at mean utilization.
    pub fn dc_w(&self) -> f64 {
        self.wall_w * self.psu_eff
    }

    /// Static coefficient `C0` of the DC power model.
    pub fn c0(&self) -> f64 {
        self.dc_w() / (1.0 + self.a)
    }

    /// Dynamic coefficient `C1` of the DC power model.
    pub fn c1(&self) -> f64 {
        self.dc_w() * self.a / ((1.0 + self.a) * self.mean_util)
    }

    /// Fan electrical power (held constant by a pinned policy at half
    /// speed; the cubic law gives `max_power = fan_w / 0.125`).
    pub fn fan_w(&self) -> f64 {
        self.fan_frac * self.c0()
    }

    /// Builds the node spec realizing this budget.
    ///
    /// Splits: memory takes 10% of `C1` (active) and 6% of `C0` (idle);
    /// processors take the rest of `C1` as dynamic power and `leak_frac`
    /// of `C0` as leakage; whatever remains of `C0` is static board power.
    /// The thermal resistance is chosen so the node runs at 60 °C under
    /// mean load (with `t_ref` = 60 °C so leakage is calibrated exactly at
    /// the operating point).
    pub fn build(&self) -> NodeSpec {
        let c0 = self.c0();
        let c1 = self.c1();
        let fan_w = self.fan_w();
        let mem_active = 0.10 * c1;
        let dyn_total = 0.90 * c1 / (1.0 - self.idle_fraction);
        let leak_total = self.leak_frac * c0;
        let mem_idle = 0.06 * c0;
        let idle_dyn = dyn_total * self.idle_fraction;
        let static_w = (c0 - fan_w - leak_total - mem_idle - idle_dyn).max(0.0);

        let heat_at_mean = c0 + c1 * self.mean_util - fan_w;
        let r_th = 35.0 / heat_at_mean.max(1.0);

        NodeSpec {
            processors: vec![
                ProcessorSpec {
                    dynamic_w: dyn_total / self.sockets as f64,
                    leakage_w: leak_total / self.sockets as f64,
                    idle_fraction: self.idle_fraction,
                    f_nom_mhz: self.f_nom_mhz,
                    v_nom: self.v_nom,
                    leakage_temp_coeff: self.leakage_temp_coeff,
                    t_ref_c: 60.0,
                };
                self.sockets
            ],
            memory: MemorySpec {
                idle_w: mem_idle,
                active_w: mem_active,
            },
            static_power: StaticSpec { watts: static_w },
            fan: FanSpec {
                max_power_w: fan_w / 0.125,
                min_speed: 0.25,
            },
            thermal: ThermalSpec {
                t_ambient_c: 25.0,
                r_th_max: r_th,
                r_th_min: r_th,
                tau_s: self.tau_s,
            },
            psu_efficiency: self.psu_eff,
        }
    }

    /// The governor pinning the nominal operating point (model scale 1).
    pub fn nominal_governor(&self) -> Governor {
        Governor::Static(PState {
            f_mhz: self.f_nom_mhz,
            voltage: VoltagePolicy::Fixed(self.v_nom),
        })
    }

    /// Solves the manufacturing-spread parameters so that per-node wall
    /// power has the published coefficient of variation.
    ///
    /// Fan power is constant under a pinned policy, so the compute path
    /// must carry `cv * dc / compute` of relative spread; per-socket
    /// leakage (log-sigma fixed at 0.06) contributes
    /// `sqrt(sockets) * leak_w * 0.06 / compute`, and the node multiplier
    /// takes up the remainder.
    pub fn variability_for_cv(&self, target_cv: f64) -> VariabilityModel {
        const LEAK_SIGMA: f64 = 0.06;
        let (needed, leak) = self.spread_terms(target_cv);
        let from_leak = (self.sockets as f64).sqrt() * leak * LEAK_SIGMA;
        let node_sigma = (needed * needed - from_leak * from_leak).max(1e-8).sqrt();
        VariabilityModel {
            leakage_sigma: LEAK_SIGMA,
            node_sigma,
            vid_bins: 6,
            vid_leakage_corr: 0.0,
        }
    }

    /// The compute path's relative spread `target_cv` needs, and a socket's leakage relative to it.
    fn spread_terms(&self, target_cv: f64) -> (f64, f64) {
        let compute = self.c0() + self.c1() * self.mean_util - self.fan_w();
        let leak_per_socket = self.leak_frac * self.c0() / self.sockets as f64;
        (target_cv * self.dc_w() / compute, leak_per_socket / compute)
    }

    /// The node-multiplier spread giving the first `nodes` nodes `spec`
    /// builds exactly `target_cv` on their realized draws. Node `n`'s compute
    /// power is `A_n·m_n` (leakage factors, multiplier); scaling the spread
    /// by `k` gives `A + k·B`, `B = A·(m − 1)`, and `Var(A + k·B) = needed²`.
    fn realized_node_sigma(&self, target_cv: f64, spec: &ClusterSpec, nodes: usize) -> f64 {
        let (needed, leak) = self.spread_terms(target_cv);
        let prefix = ClusterSpec {
            total_nodes: nodes,
            ..spec.clone()
        };
        let cluster = Cluster::build(prefix).expect("preset specs are valid");
        // Σ of A, B, A², A·B and B² over the nodes.
        let mut sums = [0.0; 5];
        for n in 0..nodes {
            let asics = cluster.asics(n).expect("node in range");
            let a = 1.0 + leak * asics.iter().map(|x| x.leakage_factor - 1.0).sum::<f64>();
            let b = a * (cluster.multiplier(n).expect("node in range") - 1.0);
            for (sum, x) in sums.iter_mut().zip([a, b, a * a, a * b, b * b]) {
                *sum += x;
            }
        }
        let n = nodes as f64;
        let cov = |xy: f64, x: f64, y: f64| (xy - x * y / n) / (n - 1.0);
        let [a, b, aa, ab, bb] = sums;
        let (var_a, cov_ab, var_b) = (cov(aa, a, a), cov(ab, a, b), cov(bb, b, b));
        let disc = cov_ab * cov_ab - var_b * (var_a - needed * needed);
        let k = if var_b > 0.0 && disc >= 0.0 {
            (disc.sqrt() - cov_ab) / var_b
        } else {
            1.0
        };
        spec.variability.node_sigma * k
    }
}

fn pinned_fans() -> FanPolicy {
    FanPolicy::Pinned { speed: 0.5 }
}

fn hpl_cpu_shape(end_frac: f64) -> HplShape {
    HplShape {
        peak: 0.96,
        plateau_frac: 0.0,
        end_frac,
        kappa: 3.0,
        warmup_frac: 0.0,
        idle: 0.08,
        ripple: 0.004,
        panel_steps: 240.0,
    }
}

fn hpl_gpu_shape(plateau_frac: f64, end_frac: f64) -> HplShape {
    HplShape {
        peak: 0.98,
        plateau_frac,
        end_frac,
        kappa: 1.0,
        warmup_frac: 0.0,
        idle: 0.10,
        ripple: 0.02,
        panel_steps: 120.0,
    }
}

fn trace_preset(
    name: &'static str,
    total_nodes: usize,
    budget: NodeBudget,
    hpl: Hpl,
    targets: PaperTargets,
) -> SystemPreset {
    SystemPreset {
        name,
        cluster_spec: ClusterSpec {
            name: name.into(),
            total_nodes,
            node: budget.build(),
            variability: budget.variability_for_cv(0.02),
            governor: budget.nominal_governor(),
            fan_policy: pinned_fans(),
            ambient_gradient_c: 0.0,
            seed: 0x5C15_0001,
        },
        workload: WorkloadSpec::Hpl(hpl),
        balance: LoadBalance::Balanced,
        measured_nodes: total_nodes,
        scope: MeterScope::Wall,
        targets,
    }
}

/// Colosse (Calcul Québec): 7-hour CPU HPL run with a power curve flat to
/// 0.25% — the "most traditional" design in Figure 1.
pub fn colosse() -> SystemPreset {
    let phases = RunPhases::new(600.0, 7.0 * 3600.0, 600.0).unwrap();
    // Essentially flat: tiny tail decline; the slight first-20% deficit in
    // the paper comes from thermal warm-up, which the engine reproduces
    // (long tau, higher leakage temperature coefficient).
    let shape = hpl_cpu_shape(0.9949);
    let hpl = Hpl::with_shape(
        HplVariant::CpuMainMemory,
        phases,
        Hpl::flops_for_matrix(1.43e6),
        shape,
    )
    .unwrap();
    let mut budget = NodeBudget::cpu(398_700.0 / 960.0, 1.0, hpl.mean_core_utilization(), 2);
    budget.leakage_temp_coeff = 0.012;
    budget.tau_s = 900.0;
    trace_preset(
        "Colosse",
        960,
        budget,
        hpl,
        PaperTargets {
            population: 960,
            runtime_hours: Some(7.0),
            core_kw: Some(398.7),
            first20_kw: Some(398.1),
            last20_kw: Some(398.2),
            mean_node_w: None,
            sigma_node_w: None,
        },
    )
}

/// Sequoia-25 (LLNL): the temporary Sequoia+Vulcan combination, ~2M cores,
/// 28-hour CPU HPL run with a ~3.5% first-to-last drift.
pub fn sequoia25() -> SystemPreset {
    let phases = RunPhases::new(1200.0, 28.0 * 3600.0, 600.0).unwrap();
    let shape = hpl_cpu_shape(0.91);
    let hpl = Hpl::with_shape(
        HplVariant::CpuMainMemory,
        phases,
        Hpl::flops_for_matrix(1.53e7),
        shape,
    )
    .unwrap();
    let mut budget = NodeBudget::cpu(
        11_503_300.0 / 122_880.0,
        1.0,
        hpl.mean_core_utilization(),
        1,
    );
    budget.fan_frac = 0.02; // BG/Q racks are water-cooled
    budget.psu_eff = 0.93;
    trace_preset(
        "Sequoia-25",
        122_880,
        budget,
        hpl,
        PaperTargets {
            population: 122_880,
            runtime_hours: Some(28.0),
            core_kw: Some(11_503.3),
            first20_kw: Some(11_628.7),
            last20_kw: Some(11_244.2),
            mean_node_w: None,
            sigma_node_w: None,
        },
    )
}

/// Piz Daint (CSCS): 1.5-hour GPU in-core HPL run; >20% spread between
/// segment averages.
pub fn piz_daint() -> SystemPreset {
    let phases = RunPhases::new(300.0, 1.5 * 3600.0, 300.0).unwrap();
    // a = 0.50 with plateau 0.68 / end 0.20 fits first = +4.85%,
    // last = -16.2% (see DESIGN.md).
    let shape = hpl_gpu_shape(0.68, 0.20);
    let hpl = Hpl::with_shape(
        HplVariant::GpuInCore,
        phases,
        Hpl::flops_for_matrix(2.78e6),
        shape,
    )
    .unwrap();
    let mut budget = NodeBudget::cpu(833_400.0 / 5_272.0, 0.50, hpl.mean_core_utilization(), 2);
    budget.psu_eff = 0.93;
    trace_preset(
        "Piz Daint",
        5_272,
        budget,
        hpl,
        PaperTargets {
            population: 5_272,
            runtime_hours: Some(1.5),
            core_kw: Some(833.4),
            first20_kw: Some(873.8),
            last20_kw: Some(698.4),
            mean_node_w: None,
            sigma_node_w: None,
        },
    )
}

/// L-CSC (GSI): the Green500 #1 multi-GPU cluster; first-20% 63.9 kW vs
/// last-20% 46.8 kW — a >20% measurement swing under the old rules.
pub fn lcsc() -> SystemPreset {
    let phases = RunPhases::new(300.0, 1.5 * 3600.0, 300.0).unwrap();
    // a = 0.533 with plateau 0.57 / end 0.12 fits first = +8.1%,
    // last = -20.8% (see DESIGN.md).
    let shape = hpl_gpu_shape(0.57, 0.12);
    let hpl = Hpl::with_shape(
        HplVariant::GpuInCore,
        phases,
        Hpl::flops_for_matrix(1.36e6),
        shape,
    )
    .unwrap();
    let mut budget = NodeBudget::cpu(59_100.0 / 160.0, 0.533, hpl.mean_core_utilization(), 4);
    budget.psu_eff = 0.93;
    budget.f_nom_mhz = 774.0;
    budget.v_nom = 1.018;
    trace_preset(
        "L-CSC",
        160,
        budget,
        hpl,
        PaperTargets {
            population: 160,
            runtime_hours: Some(1.5),
            core_kw: Some(59.1),
            first20_kw: Some(63.9),
            last20_kw: Some(46.8),
            mean_node_w: None,
            sigma_node_w: None,
        },
    )
}

#[allow(clippy::too_many_arguments)] // one argument per published Table 3/4 column
fn variability_preset(
    name: &'static str,
    population: usize,
    measured: usize,
    budget: NodeBudget,
    target_cv: f64,
    workload: WorkloadSpec,
    mean_w: f64,
    sigma_w: f64,
) -> SystemPreset {
    let mut cluster_spec = ClusterSpec {
        name: name.into(),
        total_nodes: population,
        node: budget.build(),
        variability: budget.variability_for_cv(target_cv),
        governor: budget.nominal_governor(),
        fan_policy: pinned_fans(),
        ambient_gradient_c: 0.0,
        seed: 0x7AB1_E400 ^ population as u64,
    };
    cluster_spec.variability.node_sigma =
        budget.realized_node_sigma(target_cv, &cluster_spec, measured);
    SystemPreset {
        name,
        cluster_spec,
        workload,
        balance: LoadBalance::Balanced,
        measured_nodes: measured,
        scope: MeterScope::Wall,
        targets: PaperTargets {
            population,
            runtime_hours: None,
            core_kw: None,
            first20_kw: None,
            last20_kw: None,
            mean_node_w: Some(mean_w),
            sigma_node_w: Some(sigma_w),
        },
    }
}

fn short_hpl_cpu() -> Hpl {
    let phases = RunPhases::new(120.0, 2.0 * 3600.0, 120.0).unwrap();
    Hpl::with_shape(
        HplVariant::CpuMainMemory,
        phases,
        Hpl::flops_for_matrix(2.0e5),
        hpl_cpu_shape(0.93),
    )
    .unwrap()
}

/// Calcul Québec: 480 blades (2x Intel X5560 nodes), HPL,
/// mu = 581.93 W, sigma/mu = 2.00% (Table 4).
pub fn calcul_quebec() -> SystemPreset {
    let hpl = short_hpl_cpu();
    let budget = NodeBudget::cpu(581.93, 1.0, hpl.mean_core_utilization(), 4);
    variability_preset(
        "Calcul Québec",
        480,
        480,
        budget,
        0.0200,
        WorkloadSpec::Hpl(hpl),
        581.93,
        11.66,
    )
}

/// CEA Fat nodes: 4x Intel X7560, HPL, mu = 971.74 W, sigma/mu = 2.04%.
pub fn cea_fat() -> SystemPreset {
    let hpl = short_hpl_cpu();
    let budget = NodeBudget::cpu(971.74, 1.0, hpl.mean_core_utilization(), 4);
    variability_preset(
        "CEA (Fat)",
        360,
        316,
        budget,
        0.0204,
        WorkloadSpec::Hpl(hpl),
        971.74,
        19.81,
    )
}

/// CEA Thin nodes: 2x Intel E5-2680, HPL, mu = 366.84 W, sigma/mu = 2.84%.
pub fn cea_thin() -> SystemPreset {
    let hpl = short_hpl_cpu();
    let budget = NodeBudget::cpu(366.84, 1.0, hpl.mean_core_utilization(), 2);
    variability_preset(
        "CEA (Thin)",
        5_040,
        640,
        budget,
        0.0284,
        WorkloadSpec::Hpl(hpl),
        366.84,
        10.41,
    )
}

/// LRZ (SuperMUC): 2x Intel E5-2680, MPrime, mu = 209.88 W,
/// sigma/mu = 2.53%.
pub fn lrz() -> SystemPreset {
    let phases = RunPhases::new(120.0, 3600.0, 120.0).unwrap();
    let wl = MPrime::new(phases);
    let budget = NodeBudget::cpu(209.88, 1.0, wl.level(), 2);
    variability_preset(
        "LRZ",
        9_216,
        512,
        budget,
        0.0253,
        WorkloadSpec::MPrime(wl),
        209.88,
        5.31,
    )
}

/// ORNL Titan: Rodinia CFD on the K20X GPUs of 1000 nodes; the meters
/// covered the GPUs only. mu = 90.74 W, sigma/mu = 1.99% per GPU.
pub fn titan() -> SystemPreset {
    let phases = RunPhases::new(120.0, 3600.0, 120.0).unwrap();
    let wl = RodiniaCfd::new(phases);
    // Mean utilization of the Rodinia model: level minus dip share.
    let mean_util = 0.93 * 0.9 + (0.93 - 0.08) * 0.1;
    // GPU-only calibration: power = dyn*(if + (1-if)u) + leak = 90.74 W.
    let leak_w = 22.0;
    let idle_fraction = 0.12;
    let dyn_w = (90.74 - leak_w) / (idle_fraction + (1.0 - idle_fraction) * mean_util);
    // sigma/mu = 1.99% carried entirely by leakage spread.
    let leakage_sigma = 0.0199 * 90.74 / leak_w;
    let node = NodeSpec {
        processors: vec![ProcessorSpec {
            dynamic_w: dyn_w,
            leakage_w: leak_w,
            idle_fraction,
            f_nom_mhz: 732.0,
            v_nom: 1.0,
            leakage_temp_coeff: 0.004,
            t_ref_c: 60.0,
        }],
        memory: MemorySpec {
            idle_w: 25.0,
            active_w: 20.0,
        },
        // The AMD 6274 host CPU and board are unmetered: fold into static.
        static_power: StaticSpec { watts: 130.0 },
        fan: FanSpec {
            max_power_w: 40.0,
            min_speed: 0.25,
        },
        thermal: ThermalSpec {
            t_ambient_c: 25.0,
            r_th_max: 0.12,
            r_th_min: 0.12,
            tau_s: 180.0,
        },
        psu_efficiency: 0.92,
    };
    SystemPreset {
        name: "Titan",
        cluster_spec: ClusterSpec {
            name: "Titan".into(),
            total_nodes: 18_688,
            node,
            variability: VariabilityModel {
                leakage_sigma,
                node_sigma: 0.015,
                vid_bins: 6,
                vid_leakage_corr: 0.0,
            },
            governor: Governor::Static(PState {
                f_mhz: 732.0,
                voltage: VoltagePolicy::Fixed(1.0),
            }),
            fan_policy: pinned_fans(),
            ambient_gradient_c: 0.0,
            seed: 0x0E17_A200,
        },
        workload: WorkloadSpec::Rodinia(wl),
        balance: LoadBalance::Balanced,
        measured_nodes: 1_000,
        scope: MeterScope::ProcessorsOnly,
        targets: PaperTargets {
            population: 18_688,
            runtime_hours: None,
            core_kw: None,
            first20_kw: None,
            last20_kw: None,
            mean_node_w: Some(90.74),
            sigma_node_w: Some(1.81),
        },
    }
}

/// TU Dresden: 2x Intel E5-2690, FIRESTARTER, mu = 386.86 W,
/// sigma/mu = 1.51% — the tightest distribution in Table 4.
pub fn tu_dresden() -> SystemPreset {
    let phases = RunPhases::new(120.0, 3600.0, 120.0).unwrap();
    let wl = Firestarter::new(phases);
    let budget = NodeBudget::cpu(386.86, 1.2, wl.level(), 2);
    variability_preset(
        "TU Dresden",
        210,
        210,
        budget,
        0.0151,
        WorkloadSpec::Firestarter(wl),
        386.86,
        5.85,
    )
}

/// Summit (ORNL): the accelerator-era reference machine — POWER9 hosts
/// with six V100s per node, metered by the on-chip OCC rather than
/// external PDUs. Not a paper system; calibrated against the Top500
/// Rmax-run numbers (4608 nodes, ~10.1 MW wall, ~2 h GPU HPL) so the
/// `occ` meter class and the `power-accel` probes have a realistic host.
pub fn summit() -> SystemPreset {
    let phases = RunPhases::new(300.0, 2.0 * 3600.0, 300.0).unwrap();
    // GPU in-core HPL, gentler decline than the 2015 GPU systems (larger
    // device memory holds the trailing matrix longer).
    let shape = hpl_gpu_shape(0.75, 0.35);
    let hpl = Hpl::with_shape(
        HplVariant::GpuInCore,
        phases,
        Hpl::flops_for_matrix(1.13e7),
        shape,
    )
    .unwrap();
    let mut budget = NodeBudget::cpu(10_096_000.0 / 4_608.0, 0.85, hpl.mean_core_utilization(), 2);
    budget.psu_eff = 0.94;
    budget.f_nom_mhz = 1530.0; // V100 boost clock carries the dynamic power
    budget.leak_frac = 0.25; // accelerator leakage share is higher than CPU
    let mut preset = trace_preset(
        "Summit",
        4_608,
        budget,
        hpl,
        PaperTargets {
            population: 4_608,
            runtime_hours: Some(2.0),
            core_kw: Some(10_096.0),
            first20_kw: None,
            last20_kw: None,
            mean_node_w: Some(10_096_000.0 / 4_608.0),
            sigma_node_w: None,
        },
    );
    // GPU-rich spread: ~3% per-node cv (binned accelerators dominate).
    preset.cluster_spec.variability = budget.variability_for_cv(0.03);
    preset.cluster_spec.seed = 0x0CC9_5017;
    preset
}

/// The L-CSC case-study machine of Section 5 / Figure 4: four FirePro
/// S9150 boards per node, VID-binned silicon, and the two operating
/// configurations the paper compares.
#[derive(Debug, Clone)]
pub struct LcscCaseStudy {
    /// The machine, configured with the *tuned* settings (774 MHz at a
    /// fixed 1.018 V, slow pinned fans).
    pub cluster_spec: ClusterSpec,
    /// Tuned governor: 774 MHz, 1.018 V for every board.
    pub tuned_governor: Governor,
    /// Vendor-default governor: 900 MHz at each board's VID voltage.
    pub default_governor: Governor,
    /// Slow pinned fans (tuned runs).
    pub slow_fans: FanPolicy,
    /// Fast pinned fans (required to stay in thermal limits at 900 MHz).
    pub fast_fans: FanPolicy,
    /// Per-node HPL performance at 774 MHz, in GFLOPS (performance scales
    /// linearly with frequency).
    pub gflops_at_774: f64,
    /// Single-node HPL phases used for the per-node efficiency runs.
    pub phases: RunPhases,
}

impl LcscCaseStudy {
    /// Builds the case-study configuration.
    pub fn new() -> Self {
        let preset = lcsc();
        let mut cluster_spec = preset.cluster_spec;
        // Section 5 measures per-GPU effects: most of the static budget is
        // GPU idle/leakage rather than board power, so re-balance the node
        // toward the processors (4 x S9150 dominate L-CSC node power).
        let hpl = match &preset.workload {
            WorkloadSpec::Hpl(h) => *h,
            _ => unreachable!("lcsc preset runs HPL"),
        };
        let mut budget = NodeBudget::cpu(59_100.0 / 160.0, 0.533, hpl.mean_core_utilization(), 4);
        budget.psu_eff = 0.93;
        budget.f_nom_mhz = 774.0;
        budget.v_nom = 1.018;
        budget.leak_frac = 0.35;
        budget.idle_fraction = 0.35;
        budget.fan_frac = 0.04;
        cluster_spec.node = budget.build();
        // Fan swing is a first-class effect here: give the bank the >100 W
        // authority the paper reports.
        cluster_spec.node.fan.max_power_w = 160.0;
        cluster_spec.variability = VariabilityModel {
            leakage_sigma: 0.06,
            // Tuned-config efficiency sigma ~1.2% (Figure 4 conclusion).
            node_sigma: 0.012,
            vid_bins: 6,
            // The paper's surprise: at fixed voltage, efficiency is
            // *unrelated* to VID — so VID must not correlate with leakage.
            vid_leakage_corr: 0.0,
        };
        let tuned = Governor::Static(PState {
            f_mhz: 774.0,
            voltage: VoltagePolicy::Fixed(1.018),
        });
        let default = Governor::Static(PState {
            f_mhz: 900.0,
            voltage: VoltagePolicy::UseVid(VidTable::firepro_s9150()),
        });
        cluster_spec.governor = tuned.clone();
        let slow_fans = FanPolicy::Pinned { speed: 0.45 };
        let fast_fans = FanPolicy::Pinned { speed: 0.70 };
        cluster_spec.fan_policy = slow_fans;
        LcscCaseStudy {
            cluster_spec,
            tuned_governor: tuned,
            default_governor: default,
            slow_fans,
            fast_fans,
            gflops_at_774: 1_900.0,
            phases: RunPhases::new(120.0, 1800.0, 120.0).unwrap(),
        }
    }

    /// Per-node HPL performance in GFLOPS at frequency `f_mhz`.
    pub fn gflops_at(&self, f_mhz: f64) -> f64 {
        self.gflops_at_774 * f_mhz / 774.0
    }
}

impl Default for LcscCaseStudy {
    fn default() -> Self {
        LcscCaseStudy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for p in SystemPreset::all_presets() {
            p.cluster_spec
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(p.measured_nodes <= p.cluster_spec.total_nodes, "{}", p.name);
            assert!(p.measured_nodes > 0, "{}", p.name);
        }
        LcscCaseStudy::new().cluster_spec.validate().unwrap();
    }

    #[test]
    fn budget_realizes_target_power() {
        // Node built from a budget must draw the target wall power at mean
        // utilization, nominal governor, 60 deg C, pinned half-speed fans.
        for preset in SystemPreset::trace_presets() {
            let hpl = match &preset.workload {
                WorkloadSpec::Hpl(h) => *h,
                _ => unreachable!(),
            };
            let u = hpl.mean_core_utilization();
            let spec = &preset.cluster_spec;
            let pstate = spec.governor.pstate(0.0, u);
            let power = spec.node.power(
                &[],
                1.0,
                u,
                &pstate,
                &FanPolicy::Pinned { speed: 0.5 },
                60.0,
            );
            let target =
                preset.targets.core_kw.unwrap() * 1000.0 / preset.cluster_spec.total_nodes as f64;
            assert!(
                (power.wall_w - target).abs() / target < 0.01,
                "{}: wall {} vs target {}",
                preset.name,
                power.wall_w,
                target
            );
        }
    }

    #[test]
    fn budget_component_split_is_positive() {
        for preset in SystemPreset::trace_presets()
            .into_iter()
            .chain(SystemPreset::variability_presets())
        {
            let node = &preset.cluster_spec.node;
            assert!(node.static_power.watts >= 0.0, "{}", preset.name);
            for proc in &node.processors {
                assert!(proc.dynamic_w > 0.0, "{}", preset.name);
                assert!(
                    proc.leakage_w > 0.0 || preset.name == "Titan",
                    "{}",
                    preset.name
                );
            }
            assert!(node.memory.idle_w >= 0.0 && node.memory.active_w >= 0.0);
        }
    }

    #[test]
    fn variability_calibration_solves_cv() {
        let budget = NodeBudget::cpu(400.0, 1.0, 0.95, 2);
        let v = budget.variability_for_cv(0.02);
        v.validate().unwrap();
        assert!(v.node_sigma > 0.0 && v.node_sigma < 0.05);
        // Larger target cv -> larger node sigma.
        let v2 = budget.variability_for_cv(0.03);
        assert!(v2.node_sigma > v.node_sigma);
    }

    #[test]
    fn trace_targets_recorded() {
        let t = piz_daint().targets;
        assert_eq!(t.core_kw, Some(833.4));
        assert_eq!(t.first20_kw, Some(873.8));
        assert_eq!(t.last20_kw, Some(698.4));
        assert_eq!(t.population, 5_272);
    }

    #[test]
    fn table4_targets_recorded() {
        let names: Vec<&str> = SystemPreset::variability_presets()
            .iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "Calcul Québec",
                "CEA (Fat)",
                "CEA (Thin)",
                "LRZ",
                "Titan",
                "TU Dresden"
            ]
        );
        let lrz = lrz();
        assert_eq!(lrz.targets.mean_node_w, Some(209.88));
        assert_eq!(lrz.targets.population, 9_216);
        assert_eq!(lrz.measured_nodes, 512);
        let titan = titan();
        assert_eq!(titan.scope, MeterScope::ProcessorsOnly);
        assert_eq!(titan.measured_nodes, 1_000);
    }

    #[test]
    fn by_name_tolerates_spelling_variants() {
        for p in SystemPreset::all_presets() {
            let found = SystemPreset::by_name(p.name).expect("exact name resolves");
            assert_eq!(found.name, p.name);
        }
        assert_eq!(
            SystemPreset::by_name("piz_daint").unwrap().name,
            "Piz Daint"
        );
        assert_eq!(SystemPreset::by_name("L-CSC").unwrap().name, "L-CSC");
        assert_eq!(SystemPreset::by_name("lcsc").unwrap().name, "L-CSC");
        assert_eq!(SystemPreset::by_name("cea_fat").unwrap().name, "CEA (Fat)");
        assert_eq!(
            SystemPreset::by_name("calcul_quebec").unwrap().name,
            "Calcul Québec"
        );
        assert_eq!(
            SystemPreset::by_name("sequoia-25").unwrap().name,
            "Sequoia-25"
        );
        assert!(SystemPreset::by_name("no such machine").is_none());
        // Ten paper systems plus the accelerator-era Summit preset.
        assert_eq!(SystemPreset::all_presets().len(), 11);
    }

    #[test]
    fn by_name_equals_a_fresh_build() {
        // Every catalog lookup, under its exact name and the spelling
        // variants above, equals its constructor's output field for field.
        let built = [
            ("colosse", colosse()),
            ("sequoia-25", sequoia25()),
            ("piz_daint", piz_daint()),
            ("lcsc", lcsc()),
            ("calcul_quebec", calcul_quebec()),
            ("cea_fat", cea_fat()),
            ("cea (thin)", cea_thin()),
            ("LRZ", lrz()),
            ("titan", titan()),
            ("tu dresden", tu_dresden()),
            ("summit", summit()),
        ];
        assert_eq!(
            SystemPreset::names(),
            built.iter().map(|(_, p)| p.name).collect::<Vec<_>>()
        );
        for (variant, want) in built {
            assert_eq!(SystemPreset::by_name(want.name), Some(want.clone()));
            assert_eq!(SystemPreset::by_name(variant), Some(want), "{variant}");
        }
    }

    #[test]
    fn lookups_are_independent() {
        // A lookup is the caller's own value: scaling one leaves the next
        // lookup as built.
        let full = colosse().cluster_spec.total_nodes;
        let scaled = SystemPreset::by_name("colosse")
            .unwrap()
            .with_total_nodes(8);
        assert_eq!(scaled.cluster_spec.total_nodes, 8);
        let next = SystemPreset::by_name("colosse").unwrap();
        assert_eq!(next.cluster_spec.total_nodes, full);
        assert_eq!(next, colosse());
    }

    #[test]
    fn summit_is_an_accel_preset_not_a_paper_one() {
        // The paper families must stay exactly the published machines so
        // Table 2/4 regeneration is unaffected by accelerator additions.
        assert_eq!(SystemPreset::trace_presets().len(), 4);
        assert_eq!(SystemPreset::variability_presets().len(), 6);
        let s = SystemPreset::by_name("summit").unwrap();
        assert_eq!(s.name, "Summit");
        assert_eq!(s.cluster_spec.total_nodes, 4_608);
        // Per-node wall power at mean utilization realizes ~2.19 kW.
        let hpl = match &s.workload {
            WorkloadSpec::Hpl(h) => *h,
            _ => unreachable!("summit runs HPL"),
        };
        let u = hpl.mean_core_utilization();
        let pstate = s.cluster_spec.governor.pstate(0.0, u);
        let power = s.cluster_spec.node.power(
            &[],
            1.0,
            u,
            &pstate,
            &FanPolicy::Pinned { speed: 0.5 },
            60.0,
        );
        let target = 10_096_000.0 / 4_608.0;
        assert!(
            (power.wall_w - target).abs() / target < 0.01,
            "wall {} vs target {target}",
            power.wall_w
        );
    }

    #[test]
    fn with_total_nodes_scales() {
        let p = sequoia25().with_total_nodes(512);
        assert_eq!(p.cluster_spec.total_nodes, 512);
        assert_eq!(p.measured_nodes, 512);
    }

    #[test]
    fn case_study_governors_differ() {
        let cs = LcscCaseStudy::new();
        let tuned = cs.tuned_governor.pstate(0.0, 1.0);
        let default = cs.default_governor.pstate(0.0, 1.0);
        assert_eq!(tuned.f_mhz, 774.0);
        assert_eq!(default.f_mhz, 900.0);
        assert_eq!(tuned.voltage.voltage(5), 1.018);
        assert!(default.voltage.voltage(5) > default.voltage.voltage(0));
        assert!((cs.gflops_at(900.0) / cs.gflops_at_774 - 900.0 / 774.0).abs() < 1e-12);
    }
}
