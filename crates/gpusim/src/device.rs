//! The device registry: the five NVIDIA GPUs of the paper's Table 2,
//! extended with the public spec-sheet constants the timing model needs.
//!
//! | column | source |
//! |---|---|
//! | CUDA capability, #MP, cores/MP, GHz, host | paper, Table 2 |
//! | peak double precision gigaflops | vendor spec sheets (the paper quotes 4.7 TF for the P100 and 7.9 TF for the V100 in §4.3) |
//! | memory bandwidth | vendor spec sheets (the paper uses 870 GB/s for the V100's roofline ridge point in §4.8) |
//! | PCIe bandwidth, launch overheads, host RAM | calibrated against the paper's wall-clock columns; see DESIGN.md |
//! | ILP efficiency | calibrated against the paper's kernel-flops columns; see `model` |

/// Host operating system of the machine driving the GPU — the paper's
/// RTX 2080 lives in a Windows laptop where the WDDM driver adds
/// substantially more launch overhead than Linux.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostOs {
    /// CentOS workstations (C2050, K20C, P100, V100).
    Linux,
    /// Windows laptop (RTX 2080), WDDM driver model.
    Windows,
}

/// A simulated GPU: Table 2 characteristics plus timing-model constants.
#[derive(Clone, Debug)]
pub struct Gpu {
    /// Marketing name, e.g. `"V100"`.
    pub name: &'static str,
    /// CUDA compute capability, e.g. `"7.0"`.
    pub cuda_capability: &'static str,
    /// Number of streaming multiprocessors.
    pub multiprocessors: usize,
    /// CUDA cores per multiprocessor.
    pub cores_per_mp: usize,
    /// GPU clock in GHz.
    pub ghz: f64,
    /// Host CPU model.
    pub host_cpu: &'static str,
    /// Host CPU clock in GHz.
    pub host_ghz: f64,
    /// Host operating system.
    pub host_os: HostOs,
    /// Theoretical peak double precision performance in gigaflops.
    pub peak_dp_gflops: f64,
    /// Global memory bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Effective host<->device transfer bandwidth in GB/s (PCIe, after
    /// protocol overhead).
    pub pcie_gbs: f64,
    /// Host RAM in GB — transfers that exceed a fraction of this swap
    /// (reproduces the paper's 84-second octo double outlier in Table 7).
    pub host_ram_gb: f64,
    /// Wall-clock overhead per kernel launch in microseconds.
    pub launch_gap_us: f64,
    /// Minimum kernel duration in microseconds (scheduling granularity;
    /// contributes to the *kernel* clock, not just the wall clock).
    pub kernel_base_us: f64,
    /// Fraction of `mem_bw_gbs` streaming kernels actually sustain.
    pub mem_eff: f64,
    /// ILP efficiency of the multiple double instruction mix at one limb
    /// plane (see `model::ilp_efficiency`).
    pub ilp_base: f64,
    /// Per-plane slope of the ILP efficiency (positive on big-DP parts
    /// where deeper arithmetic exposes more instruction parallelism,
    /// negative on DP-starved parts where register pressure dominates).
    pub ilp_slope: f64,
    /// Fixed host-side wall overhead per solver invocation, ms.
    pub host_overhead_ms: f64,
    /// Seeded fault schedule for this device — quiet by default; see
    /// [`crate::fault::FaultPlan`]. The schedule is data, not behavior:
    /// the simulator never consults a clock or an entropy source, a
    /// driver (e.g. a pool's recovery loop) reads the plan and reacts.
    pub fault: crate::fault::FaultPlan,
}

impl Gpu {
    /// Total CUDA cores.
    pub fn cores(&self) -> usize {
        self.multiprocessors * self.cores_per_mp
    }

    /// The roofline ridge point in flops/byte
    /// (the paper computes 7900 / 870 ≈ 9.08 for the V100).
    pub fn ridge_point(&self) -> f64 {
        self.peak_dp_gflops / self.mem_bw_gbs
    }

    /// Tesla C2050 (Fermi, 2011).
    pub fn c2050() -> Gpu {
        Gpu {
            name: "C2050",
            cuda_capability: "2.0",
            multiprocessors: 14,
            cores_per_mp: 32,
            ghz: 1.15,
            host_cpu: "Intel X5690",
            host_ghz: 3.47,
            host_os: HostOs::Linux,
            peak_dp_gflops: 515.0,
            mem_bw_gbs: 144.0,
            pcie_gbs: 1.0,
            host_ram_gb: 24.0,
            launch_gap_us: 10.0,
            kernel_base_us: 16.0,
            mem_eff: 0.72,
            ilp_base: 0.175,
            ilp_slope: 0.004,
            host_overhead_ms: 40.0,
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// Kepler K20C (2013).
    pub fn k20c() -> Gpu {
        Gpu {
            name: "K20C",
            cuda_capability: "3.5",
            multiprocessors: 13,
            cores_per_mp: 192,
            ghz: 0.71,
            host_cpu: "Intel E5-2670",
            host_ghz: 2.60,
            host_os: HostOs::Linux,
            peak_dp_gflops: 1170.0,
            mem_bw_gbs: 208.0,
            pcie_gbs: 1.2,
            host_ram_gb: 32.0,
            launch_gap_us: 8.0,
            kernel_base_us: 25.0,
            mem_eff: 0.72,
            // Kepler's 192-core SMX is notoriously hard to fill from a
            // 128-thread block; low base efficiency.
            ilp_base: 0.095,
            ilp_slope: 0.004,
            host_overhead_ms: 40.0,
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// Pascal P100 (2016). The paper quotes 4.7 TFLOPS peak.
    pub fn p100() -> Gpu {
        Gpu {
            name: "P100",
            cuda_capability: "6.0",
            multiprocessors: 56,
            cores_per_mp: 64,
            ghz: 1.33,
            host_cpu: "Intel E5-2699",
            host_ghz: 2.20,
            host_os: HostOs::Linux,
            peak_dp_gflops: 4700.0,
            mem_bw_gbs: 732.0,
            pcie_gbs: 1.5,
            host_ram_gb: 256.0,
            launch_gap_us: 6.0,
            kernel_base_us: 12.0,
            mem_eff: 0.78,
            ilp_base: 0.155,
            ilp_slope: 0.0045,
            host_overhead_ms: 30.0,
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// Volta V100 (2019). The paper quotes 7.9 TFLOPS peak and uses
    /// 870 GB/s for the roofline.
    pub fn v100() -> Gpu {
        Gpu {
            name: "V100",
            cuda_capability: "7.0",
            multiprocessors: 80,
            cores_per_mp: 64,
            ghz: 1.91,
            host_cpu: "Intel W2123",
            host_ghz: 3.60,
            host_os: HostOs::Linux,
            peak_dp_gflops: 7900.0,
            mem_bw_gbs: 870.0,
            pcie_gbs: 5.0,
            host_ram_gb: 32.0,
            launch_gap_us: 5.0,
            kernel_base_us: 8.0,
            mem_eff: 0.80,
            ilp_base: 0.145,
            ilp_slope: 0.0045,
            host_overhead_ms: 12.0,
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// GeForce RTX 2080 Max-Q (Turing consumer part, Windows laptop).
    /// Double precision throughput is 1/32 of single precision; the few
    /// FP64 units per SM are the bottleneck for the whole instruction
    /// mix, so the efficiency band is narrow and grows only mildly with
    /// the precision.
    pub fn rtx2080() -> Gpu {
        Gpu {
            name: "RTX 2080",
            cuda_capability: "7.5",
            multiprocessors: 46,
            cores_per_mp: 64,
            ghz: 1.10,
            host_cpu: "Intel i9-9880H",
            host_ghz: 2.30,
            host_os: HostOs::Windows,
            // nominal FP64 is 1/32 of single precision (~200 GF); boost
            // clocks and the FMA-heavy instruction mix sustain a little
            // more in practice, which the paper's counters confirm.
            peak_dp_gflops: 270.0,
            mem_bw_gbs: 368.0,
            pcie_gbs: 0.5,
            host_ram_gb: 32.0,
            launch_gap_us: 22.0,
            kernel_base_us: 18.0,
            mem_eff: 0.70,
            ilp_base: 0.19,
            ilp_slope: 0.012,
            host_overhead_ms: 80.0,
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// Ampere A100 (SXM4 40 GB) — not part of the paper's Table 2, but
    /// the natural next device for the batched pipeline's device pools.
    /// Spec-sheet constants: 9.7 TFLOPS FP64 (non-tensor), 1555 GB/s
    /// HBM2e; ILP/efficiency constants extrapolated from the V100 (same
    /// 64-core FP64-capable SM organisation, one generation newer).
    pub fn a100() -> Gpu {
        Gpu {
            name: "A100",
            cuda_capability: "8.0",
            multiprocessors: 108,
            cores_per_mp: 64,
            ghz: 1.41,
            host_cpu: "AMD EPYC 7742",
            host_ghz: 2.25,
            host_os: HostOs::Linux,
            peak_dp_gflops: 9700.0,
            mem_bw_gbs: 1555.0,
            pcie_gbs: 10.0,
            host_ram_gb: 256.0,
            launch_gap_us: 4.0,
            kernel_base_us: 6.0,
            mem_eff: 0.82,
            ilp_base: 0.145,
            ilp_slope: 0.0045,
            host_overhead_ms: 10.0,
            fault: crate::fault::FaultPlan::none(),
        }
    }

    /// All five devices, oldest first (the paper's Table 2 order).
    pub fn all() -> Vec<Gpu> {
        vec![
            Gpu::c2050(),
            Gpu::k20c(),
            Gpu::p100(),
            Gpu::v100(),
            Gpu::rtx2080(),
        ]
    }

    /// The three devices used in the precision-sweep tables (4, 9, 11).
    pub fn sweep_trio() -> Vec<Gpu> {
        vec![Gpu::rtx2080(), Gpu::p100(), Gpu::v100()]
    }

    /// Look up a device by (case-insensitive) name — the paper's five
    /// plus the pool-era A100.
    pub fn by_name(name: &str) -> Option<Gpu> {
        let lower = name.to_ascii_lowercase().replace(' ', "");
        Gpu::all()
            .into_iter()
            .chain([Gpu::a100()])
            .find(|g| g.name.to_ascii_lowercase().replace(' ', "") == lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_core_counts() {
        // the #cores column of Table 2 is #MP * cores/MP
        let want = [448, 2496, 3584, 5120, 2944];
        for (gpu, w) in Gpu::all().iter().zip(want) {
            assert_eq!(gpu.cores(), w, "{}", gpu.name);
        }
    }

    #[test]
    fn v100_ridge_point_matches_paper() {
        let v = Gpu::v100();
        assert!((v.ridge_point() - 9.08).abs() < 0.01);
    }

    #[test]
    fn peak_ratio_v100_over_p100() {
        // §4.3: "one may expect the V100 to be about 1.68 times faster"
        let r = Gpu::v100().peak_dp_gflops / Gpu::p100().peak_dp_gflops;
        assert!((r - 1.68).abs() < 0.01);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Gpu::by_name("v100").unwrap().name, "V100");
        assert_eq!(Gpu::by_name("RTX2080").unwrap().name, "RTX 2080");
        assert_eq!(Gpu::by_name("a100").unwrap().name, "A100");
        assert!(Gpu::by_name("H100").is_none());
    }

    #[test]
    fn a100_extends_but_does_not_join_table2() {
        // Table 2 stays the paper's five devices
        assert_eq!(Gpu::all().len(), 5);
        assert!(Gpu::all().iter().all(|g| g.name != "A100"));
        let a = Gpu::a100();
        assert_eq!(a.cores(), 6912);
        assert!(a.peak_dp_gflops > Gpu::v100().peak_dp_gflops);
    }
}
