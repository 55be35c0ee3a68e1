//! Analytic operation and traffic counts for the three kernels of
//! Algorithm 1. These are the simulator's equivalent of the paper's
//! per-kernel accumulators, written as closed counts over the tile size.
//!
//! These declared counts are the traffic of record: the device buffers
//! count nothing at run time.

use multidouble::{MdScalar, OpCounts};

use gpusim::KernelCost;

/// Kernel efficiency classes, calibrated against the V100 columns of the
/// paper's Table 9 (see DESIGN.md §6).
pub mod eff {
    /// Per-thread triangular back-solves (divergence-free full loops
    /// stream well).
    pub const INVERT: f64 = 1.05;
    /// Single-block `x_i := U_i^{-1} b_i` products.
    pub const MULTIPLY: f64 = 0.5;
    /// Dense right-hand-side update blocks (stream well).
    pub const UPDATE: f64 = 1.0;
}

/// Inversion of `tiles` diagonal tiles of size `n` (one launch).
///
/// Thread `k` solves `U v = e_k` with a divergence-free full back
/// substitution: every thread walks all `n` rows (`n(n−1)/2`
/// multiply-subtract pairs and `n` divisions per thread), rather than
/// exploiting the sparsity of the unit right hand side — branch-free
/// kernels keep the warps converged, and this is the operation count the
/// paper's accumulators tally. The host body
/// ([`crate::kernels::invert_tile_block`]) computes only the stored
/// triangle, rows `0..=k` of column `k`, with the same bits; the price
/// stays the full loop's.
pub fn invert_cost<S: MdScalar>(tiles: usize, n: usize) -> KernelCost {
    let (t, n64) = (tiles as u64, n as u64);
    let tri = n64 * (n64 + 1) / 2;
    let mulsub = n64 * n64 * (n64 - 1) / 2; // n threads x n(n-1)/2 each
    let ops = OpCounts {
        add: 0,
        sub: mulsub * t,
        mul: mulsub * t,
        div: n64 * n64 * t,
        sqrt: 0,
    };
    // each block reads its tile's upper triangle once (into shared
    // memory) and writes the inverse's upper triangle back
    KernelCost::of::<S>(ops, tri * t, tri * t).with_eff(eff::INVERT)
}

/// One `x_i := U_i^{-1} b_i` product (one block of `n` threads).
///
/// The inverse is upper triangular: thread `r` accumulates over columns
/// `c ≥ r`, so `n(n+1)/2` multiplications and `n(n−1)/2` additions.
pub fn multiply_cost<S: MdScalar>(n: usize) -> KernelCost {
    let n64 = n as u64;
    let ops = OpCounts {
        add: n64 * (n64 - 1) / 2,
        sub: 0,
        mul: n64 * (n64 + 1) / 2,
        div: 0,
        sqrt: 0,
    };
    KernelCost::of::<S>(ops, n64 * (n64 + 1) / 2 + n64, n64).with_eff(eff::MULTIPLY)
}

/// One right-hand-side update launch: `blocks` blocks each compute
/// `b_j -= A_{j,i} x_i` (dense `n × n` tile).
///
/// Per block: `n²` multiplications, `n(n−1)` additions, `n` subtractions.
/// Each block reads its tile and its slice of `b`, plus `x_i`
/// (broadcast per block, counted once per block as on hardware where the
/// warp-coalesced read is shared through L1).
pub fn update_cost<S: MdScalar>(blocks: usize, n: usize) -> KernelCost {
    let (bl, n64) = (blocks as u64, n as u64);
    let ops = OpCounts {
        add: bl * n64 * (n64 - 1),
        sub: bl * n64,
        mul: bl * n64 * n64,
        div: 0,
        sqrt: 0,
    };
    KernelCost::of::<S>(ops, bl * (n64 * n64 + 2 * n64), bl * n64).with_eff(eff::UPDATE)
}

/// Kernel launches issued by Algorithm 1: `1 + N(N+1)/2`.
pub fn total_launches(tiles: usize) -> u64 {
    1 + (tiles as u64) * (tiles as u64 + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::Qd;

    #[test]
    fn launch_count_formula() {
        assert_eq!(total_launches(3), 1 + 6);
        assert_eq!(total_launches(80), 1 + 80 * 81 / 2);
    }

    #[test]
    fn invert_counts_small() {
        // n = 2, divergence-free: each of the 2 threads does 1 mul-sub
        // pair and 2 divisions
        let c = invert_cost::<Qd>(1, 2);
        assert_eq!(c.ops.mul, 2);
        assert_eq!(c.ops.sub, 2);
        assert_eq!(c.ops.div, 4);
    }

    #[test]
    fn update_scales_with_blocks() {
        let c1 = update_cost::<Qd>(1, 8);
        let c4 = update_cost::<Qd>(4, 8);
        assert_eq!(c4.ops.mul, 4 * c1.ops.mul);
        assert_eq!(c4.bytes, 4 * c1.bytes);
    }

    #[test]
    fn costs_use_scalar_bytes() {
        let c = multiply_cost::<Qd>(4);
        // reads 4*5/2 + 4 = 14 elems, writes 4 -> 18 * 32 bytes
        assert_eq!(c.bytes, 18 * 32);
    }
}
