//! Per-stage accounting: the simulator's rendering of the paper's tables.
//!
//! Every kernel launch is attributed to a named *stage* (the rows of the
//! paper's Tables 3–9, e.g. `"compute W"` or `"invert diagonal tiles"`).
//! A [`Profile`] accumulates kernel milliseconds, launch counts, multiple
//! double operation counts, Table 1 flops and bytes per stage, plus
//! transfer and host overhead for the wall clock.

use multidouble::OpCounts;

/// Accumulated statistics of one stage.
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    /// Stage label (table row legend).
    pub name: String,
    /// Total kernel time attributed to this stage, ms.
    pub kernel_ms: f64,
    /// Number of kernel launches.
    pub launches: u64,
    /// Multiple double operation counts.
    pub ops: OpCounts,
    /// Table 1 flops (reporting convention).
    pub flops_paper: f64,
    /// Measured-convention flops (timing convention).
    pub flops_measured: f64,
    /// Global memory traffic, bytes.
    pub bytes: u64,
}

/// A full run profile.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    stages: Vec<StageStats>,
    /// Host<->device transfer time, ms.
    pub transfer_ms: f64,
    /// Bytes moved over PCIe.
    pub transfer_bytes: u64,
    /// Wall-clock launch-gap overhead, ms.
    pub launch_gap_ms: f64,
    /// Fixed host-side overhead, ms.
    pub host_ms: f64,
}

impl Profile {
    /// Empty profile.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Record `launches` kernel launches under `stage` (more than one
    /// when a batched launch stands for several logical ones, or when a
    /// whole stage is merged in).
    pub fn record(
        &mut self,
        stage: &str,
        launches: u64,
        kernel_ms: f64,
        ops: OpCounts,
        flops_paper: f64,
        flops_measured: f64,
        bytes: u64,
    ) {
        let s = match self.stages.iter_mut().find(|s| s.name == stage) {
            Some(s) => s,
            None => {
                self.stages.push(StageStats {
                    name: stage.to_string(),
                    ..Default::default()
                });
                self.stages.last_mut().unwrap()
            }
        };
        s.kernel_ms += kernel_ms;
        s.launches += launches;
        s.ops += ops;
        s.flops_paper += flops_paper;
        s.flops_measured += flops_measured;
        s.bytes += bytes;
    }

    /// Stages in first-recorded order.
    pub fn stages(&self) -> &[StageStats] {
        &self.stages
    }

    /// Look up one stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Sum of all kernel times, ms (the paper's "all kernels" row).
    pub fn all_kernels_ms(&self) -> f64 {
        self.stages.iter().map(|s| s.kernel_ms).sum()
    }

    /// Total kernel launches.
    pub fn total_launches(&self) -> u64 {
        self.stages.iter().map(|s| s.launches).sum()
    }

    /// Total Table 1 flops.
    pub fn total_flops_paper(&self) -> f64 {
        self.stages.iter().map(|s| s.flops_paper).sum()
    }

    /// Total bytes of kernel global memory traffic.
    pub fn total_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.bytes).sum()
    }

    /// Wall-clock time, ms: kernels + transfers + launch gaps + host.
    pub fn wall_ms(&self) -> f64 {
        self.all_kernels_ms() + self.transfer_ms + self.launch_gap_ms + self.host_ms
    }

    /// Two-lane attribution of the wall clock, ms: `(prep, compute)`.
    /// The prep lane is what a host core and the PCIe link spend (fixed
    /// host overhead + transfers); the compute lane is what the device
    /// itself spends (kernels + launch gaps). The shares sum to
    /// [`Profile::wall_ms`] exactly — this is the split the pipeline's
    /// stage timelines and trace tracks render as separate lanes.
    pub fn lane_split_ms(&self) -> (f64, f64) {
        (
            self.host_ms + self.transfer_ms,
            self.all_kernels_ms() + self.launch_gap_ms,
        )
    }

    /// Kernel-time gigaflops under the paper's reporting convention
    /// ("the kernel flops in the tables are the totals of the counts of
    /// the double precision operations over the sum of the times spent by
    /// the kernels").
    pub fn kernel_gflops(&self) -> f64 {
        let t = self.all_kernels_ms();
        if t <= 0.0 {
            return 0.0;
        }
        self.total_flops_paper() / (t * 1.0e-3) / 1.0e9
    }

    /// Wall-clock gigaflops.
    pub fn wall_gflops(&self) -> f64 {
        let t = self.wall_ms();
        if t <= 0.0 {
            return 0.0;
        }
        self.total_flops_paper() / (t * 1.0e-3) / 1.0e9
    }

    /// Merge another profile into this one (used by the solver to combine
    /// the QR and back substitution profiles).
    pub fn absorb(&mut self, other: &Profile) {
        for s in &other.stages {
            self.record(
                &s.name,
                s.launches,
                s.kernel_ms,
                s.ops,
                s.flops_paper,
                s.flops_measured,
                s.bytes,
            );
        }
        self.transfer_ms += other.transfer_ms;
        self.transfer_bytes += other.transfer_bytes;
        self.launch_gap_ms += other.launch_gap_ms;
        self.host_ms += other.host_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(n: u64) -> OpCounts {
        OpCounts {
            add: n,
            mul: n,
            ..OpCounts::ZERO
        }
    }

    #[test]
    fn stages_accumulate_in_order() {
        let mut p = Profile::new();
        p.record("beta, v", 1, 1.0, ops(10), 100.0, 40.0, 64);
        p.record("update R", 1, 2.0, ops(20), 200.0, 80.0, 128);
        p.record("beta, v", 1, 0.5, ops(5), 50.0, 20.0, 32);
        assert_eq!(p.stages().len(), 2);
        assert_eq!(p.stages()[0].name, "beta, v");
        assert_eq!(p.stages()[0].launches, 2);
        assert!((p.stages()[0].kernel_ms - 1.5).abs() < 1e-12);
        assert!((p.all_kernels_ms() - 3.5).abs() < 1e-12);
        assert_eq!(p.total_launches(), 3);
    }

    #[test]
    fn gflops_reporting() {
        let mut p = Profile::new();
        p.record("k", 1, 1000.0, ops(1), 2.0e12, 1.0e12, 0);
        // 2e12 flops over 1 second = 2000 gigaflops
        assert!((p.kernel_gflops() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn wall_includes_overheads() {
        let mut p = Profile::new();
        p.record("k", 1, 10.0, ops(1), 1.0, 1.0, 0);
        p.transfer_ms = 5.0;
        p.launch_gap_ms = 1.0;
        p.host_ms = 4.0;
        assert!((p.wall_ms() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn lane_split_partitions_the_wall_clock() {
        let mut p = Profile::new();
        p.record("k", 1, 10.0, ops(1), 1.0, 1.0, 0);
        p.transfer_ms = 5.0;
        p.launch_gap_ms = 1.0;
        p.host_ms = 4.0;
        let (prep, compute) = p.lane_split_ms();
        assert!((prep - 9.0).abs() < 1e-12);
        assert!((compute - 11.0).abs() < 1e-12);
        assert!((prep + compute - p.wall_ms()).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges_counts() {
        let mut a = Profile::new();
        a.record("x", 1, 1.0, ops(1), 10.0, 5.0, 8);
        let mut b = Profile::new();
        b.record("x", 1, 2.0, ops(2), 20.0, 10.0, 16);
        b.record("y", 1, 3.0, ops(3), 30.0, 15.0, 24);
        b.transfer_ms = 7.0;
        a.absorb(&b);
        assert_eq!(a.stage("x").unwrap().launches, 2);
        assert!((a.stage("x").unwrap().kernel_ms - 3.0).abs() < 1e-12);
        assert_eq!(a.stages().len(), 2);
        assert!((a.transfer_ms - 7.0).abs() < 1e-12);
    }
}
