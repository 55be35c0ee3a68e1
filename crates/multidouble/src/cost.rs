//! Operation-cost accounting: how many double precision operations one
//! multiple double operation performs.
//!
//! The paper's Table 1 tallies the CAMPARY operation counts and uses them
//! as multipliers to convert kernel operation counts into flop totals
//! ("for every kernel … a small function accumulates the number of
//! arithmetical operations … using the numbers in Table 1 as multipliers").
//! [`paper_real_cost`] reproduces those numbers; [`measured_real_cost_cached`]
//! holds the counts measured by instrumenting *this* crate's algorithms
//! (see [`crate::count`]); the difference is dominated by FMA-based
//! `two_prod` (2 ops) versus the Dekker split (17 ops) the CAMPARY tallies
//! assume.

/// Double-precision operation total per multiple double operation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpCost {
    /// Flops per addition (the paper's "add" Σ row).
    pub add: f64,
    /// Flops per subtraction (Table 1 folds this into "add").
    pub sub: f64,
    /// Flops per multiplication.
    pub mul: f64,
    /// Flops per division.
    pub div: f64,
    /// Flops per square root (not tabulated by the paper; estimated as
    /// two divisions — square roots appear once per Householder column).
    pub sqrt: f64,
}

impl OpCost {
    /// Average of add, mul and div Σ values — the paper's headline
    /// overhead predictor (37.7, 439.3, 2379.0).
    pub fn average(&self) -> f64 {
        (self.add + self.mul + self.div) / 3.0
    }
}

/// Raw counts of multiple double operations accumulated by a kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpCounts {
    /// Number of multiple double additions.
    pub add: u64,
    /// Number of multiple double subtractions.
    pub sub: u64,
    /// Number of multiple double multiplications.
    pub mul: u64,
    /// Number of multiple double divisions.
    pub div: u64,
    /// Number of multiple double square roots.
    pub sqrt: u64,
}

impl OpCounts {
    /// No operations.
    pub const ZERO: OpCounts = OpCounts {
        add: 0,
        sub: 0,
        mul: 0,
        div: 0,
        sqrt: 0,
    };

    /// Total double precision flops under a cost table.
    pub fn flops(&self, c: &OpCost) -> f64 {
        self.add as f64 * c.add
            + self.sub as f64 * c.sub
            + self.mul as f64 * c.mul
            + self.div as f64 * c.div
            + self.sqrt as f64 * c.sqrt
    }

    /// Elementwise sum.
    pub fn merged(&self, o: &OpCounts) -> OpCounts {
        OpCounts {
            add: self.add + o.add,
            sub: self.sub + o.sub,
            mul: self.mul + o.mul,
            div: self.div + o.div,
            sqrt: self.sqrt + o.sqrt,
        }
    }

    /// Scale all counts (e.g. per-thread counts by thread count).
    pub fn scaled(&self, k: u64) -> OpCounts {
        OpCounts {
            add: self.add * k,
            sub: self.sub * k,
            mul: self.mul * k,
            div: self.div * k,
            sqrt: self.sqrt * k,
        }
    }
}

impl core::ops::Add for OpCounts {
    type Output = OpCounts;
    fn add(self, o: OpCounts) -> OpCounts {
        self.merged(&o)
    }
}
impl core::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        *self = self.merged(&o);
    }
}

/// The paper's Table 1, Σ column (sqrt estimated as two divisions).
pub fn paper_real_cost(limbs: usize) -> OpCost {
    match limbs {
        1 => OpCost {
            add: 1.0,
            sub: 1.0,
            mul: 1.0,
            div: 1.0,
            sqrt: 1.0,
        },
        2 => OpCost {
            add: 20.0,
            sub: 20.0,
            mul: 23.0,
            div: 70.0,
            sqrt: 140.0,
        },
        4 => OpCost {
            add: 89.0,
            sub: 89.0,
            mul: 336.0,
            div: 893.0,
            sqrt: 1786.0,
        },
        8 => OpCost {
            add: 269.0,
            sub: 269.0,
            mul: 1742.0,
            div: 5126.0,
            sqrt: 10252.0,
        },
        _ => panic!("unsupported limb count {limbs}"),
    }
}

/// Cost table for a scalar that may be complex: complex operations are
/// expressed in real multiple double operations, then expanded.
///
/// * complex add = 2 real adds
/// * complex mul = 4 real muls + 1 add + 1 sub
/// * complex div = mul by conjugate + norm (2 mul, 1 add) + 2 real divs
/// * complex sqrt ≈ 1 real sqrt + 2 real divs + 2 adds (only used for
///   moduli in Householder vectors, never on the hot path)
pub fn complex_cost(real: OpCost) -> OpCost {
    OpCost {
        add: 2.0 * real.add,
        sub: 2.0 * real.sub,
        mul: 4.0 * real.mul + real.add + real.sub,
        div: 6.0 * real.mul + 2.0 * real.add + real.sub + 2.0 * real.div,
        sqrt: real.sqrt + 2.0 * real.div + 2.0 * real.add,
    }
}

/// The predicted cost overhead of doubling the precision, from the Table 1
/// averages: 439.3 / 37.7 ≈ 11.7 (2d → 4d) and 2379.0 / 439.3 ≈ 5.4
/// (4d → 8d). Exposed for the Figure 1 commentary in the bench harness.
pub fn predicted_overhead_factor(from_limbs: usize, to_limbs: usize) -> f64 {
    paper_real_cost(to_limbs).average() / paper_real_cost(from_limbs).average()
}

/// Measured (FMA-convention) cost table for a real precision, cached —
/// instrumented measurement runs once per process per precision.
pub fn measured_real_cost_cached(limbs: usize) -> OpCost {
    use std::sync::OnceLock;
    static CACHE: [OnceLock<OpCost>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let slot = match limbs {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => panic!("unsupported limb count {limbs}"),
    };
    *CACHE[slot].get_or_init(|| crate::count::measured_real_cost(limbs))
}

/// Per-scalar cost description used by the scalar trait.
#[derive(Clone, Copy, Debug)]
pub struct ScalarCost {
    /// Doubles per scalar (limb planes; ×2 for complex).
    pub planes: usize,
    /// Cost under the paper model.
    pub paper: OpCost,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sums_and_averages() {
        // Table 1 Σ rows and their stated averages.
        let dd = paper_real_cost(2);
        assert_eq!((dd.add, dd.mul, dd.div), (20.0, 23.0, 70.0));
        assert!((dd.average() - 37.666).abs() < 0.1); // paper rounds to 37.7

        let qd = paper_real_cost(4);
        assert_eq!((qd.add, qd.mul, qd.div), (89.0, 336.0, 893.0));
        assert!((qd.average() - 439.333).abs() < 0.1); // paper: 439.3

        let od = paper_real_cost(8);
        assert_eq!((od.add, od.mul, od.div), (269.0, 1742.0, 5126.0));
        assert!((od.average() - 2379.0).abs() < 0.1);
    }

    #[test]
    fn predicted_overheads_match_paper() {
        let f24 = predicted_overhead_factor(2, 4);
        let f48 = predicted_overhead_factor(4, 8);
        assert!((f24 - 11.7).abs() < 0.05, "2d->4d predicted {f24}");
        assert!((f48 - 5.4).abs() < 0.05, "4d->8d predicted {f48}");
    }

    #[test]
    fn counts_expand_to_flops() {
        let c = OpCounts {
            add: 10,
            sub: 0,
            mul: 10,
            div: 1,
            sqrt: 0,
        };
        let flops = c.flops(&paper_real_cost(4));
        assert_eq!(flops, 10.0 * 89.0 + 10.0 * 336.0 + 893.0);
    }

    #[test]
    fn complex_mul_cost_is_about_4x() {
        let r = paper_real_cost(2);
        let c = complex_cost(r);
        assert!(c.mul / r.mul > 4.0 && c.mul / r.mul < 6.5);
    }
}
