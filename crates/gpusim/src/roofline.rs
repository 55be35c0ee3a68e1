//! The roofline model (Williams, Waterman, Patterson) as applied in the
//! paper's §4.8 / Figure 5 to the tiled back substitution on the V100.

use crate::device::Gpu;
use crate::profile::Profile;

/// One point of a roofline plot.
#[derive(Clone, Copy, Debug)]
pub struct RooflinePoint {
    /// Label (e.g. the tile size `n`).
    pub label: usize,
    /// Arithmetic intensity: Table 1 flops per byte of global traffic.
    pub intensity: f64,
    /// Attained performance in gigaflops (kernel-time convention).
    pub gflops: f64,
}

impl RooflinePoint {
    /// Build from a run profile.
    pub fn from_profile(label: usize, p: &Profile) -> Self {
        let bytes = p.total_bytes().max(1) as f64;
        RooflinePoint {
            label,
            intensity: p.total_flops_paper() / bytes,
            gflops: p.kernel_gflops(),
        }
    }

    /// The roof for this intensity on a device:
    /// `min(peak, intensity * bandwidth)`.
    pub fn roof(&self, gpu: &Gpu) -> f64 {
        (self.intensity * gpu.mem_bw_gbs).min(gpu.peak_dp_gflops)
    }

    /// Whether the point sits in the compute-bound region
    /// (intensity above the ridge point).
    pub fn compute_bound(&self, gpu: &Gpu) -> bool {
        self.intensity >= gpu.ridge_point()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::OpCounts;

    #[test]
    fn point_classification() {
        let v = Gpu::v100();
        let lo = RooflinePoint {
            label: 32,
            intensity: 2.0,
            gflops: 100.0,
        };
        let hi = RooflinePoint {
            label: 256,
            intensity: 50.0,
            gflops: 1000.0,
        };
        assert!(!lo.compute_bound(&v));
        assert!(hi.compute_bound(&v));
        assert!((lo.roof(&v) - 2.0 * 870.0).abs() < 1e-9);
        assert_eq!(hi.roof(&v), 7900.0);
    }

    #[test]
    fn from_profile_divides() {
        let mut p = Profile::new();
        p.record("k", 1, 1000.0, OpCounts::ZERO, 8.0e12, 4.0e12, 1 << 30);
        let pt = RooflinePoint::from_profile(64, &p);
        assert!((pt.gflops - 8000.0).abs() < 1.0);
        assert!((pt.intensity - 8.0e12 / (1u64 << 30) as f64).abs() < 1e-6);
    }
}
