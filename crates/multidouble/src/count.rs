//! Instrumented operation counting (the Table 1 reproduction).
//!
//! [`Cf64`] is an [`Fp`] whose arithmetic operators bump thread-local
//! counters; running any multiple double algorithm on `Cf64` therefore
//! measures exactly how many double precision operations it performs —
//! on the same generic code that production `f64` uses. [`SplitF64`]
//! additionally replaces the FMA `two_prod` by the Dekker split, which is
//! the convention behind the CAMPARY tallies in the paper's Table 1.

use core::cell::Cell;
use core::ops::{Add, Div, Mul, Neg, Sub};

use crate::cost::OpCost;
use crate::fp::{two_prod_split, Fp};
use crate::{dd, od, qd};

thread_local! {
    static ADDS: Cell<u64> = const { Cell::new(0) };
    static MULS: Cell<u64> = const { Cell::new(0) };
    static DIVS: Cell<u64> = const { Cell::new(0) };
    static FMAS: Cell<u64> = const { Cell::new(0) };
    static SQRTS: Cell<u64> = const { Cell::new(0) };
}

/// A tally of raw double precision operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlopTally {
    /// Additions and subtractions.
    pub adds: u64,
    /// Multiplications.
    pub muls: u64,
    /// Divisions.
    pub divs: u64,
    /// Fused multiply-adds (each counted once).
    pub fmas: u64,
    /// Square roots.
    pub sqrts: u64,
}

impl FlopTally {
    /// Total operation count, counting an FMA as one operation.
    pub fn total(&self) -> u64 {
        self.adds + self.muls + self.divs + self.fmas + self.sqrts
    }
}

fn reset() {
    ADDS.with(|c| c.set(0));
    MULS.with(|c| c.set(0));
    DIVS.with(|c| c.set(0));
    FMAS.with(|c| c.set(0));
    SQRTS.with(|c| c.set(0));
}

fn snapshot() -> FlopTally {
    FlopTally {
        adds: ADDS.with(Cell::get),
        muls: MULS.with(Cell::get),
        divs: DIVS.with(Cell::get),
        fmas: FMAS.with(Cell::get),
        sqrts: SQRTS.with(Cell::get),
    }
}

/// Run `f` with fresh counters and return what it tallied.
pub fn tally<R>(f: impl FnOnce() -> R) -> (R, FlopTally) {
    reset();
    let r = f();
    (r, snapshot())
}

macro_rules! counting_float {
    ($name:ident, $doc:literal) => {
        #[doc = $doc]
        #[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
        pub struct $name(pub f64);

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, r: Self) -> Self {
                ADDS.with(|c| c.set(c.get() + 1));
                $name(self.0 + r.0)
            }
        }
        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, r: Self) -> Self {
                ADDS.with(|c| c.set(c.get() + 1));
                $name(self.0 - r.0)
            }
        }
        impl Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, r: Self) -> Self {
                MULS.with(|c| c.set(c.get() + 1));
                $name(self.0 * r.0)
            }
        }
        impl Div for $name {
            type Output = Self;
            #[inline]
            fn div(self, r: Self) -> Self {
                DIVS.with(|c| c.set(c.get() + 1));
                $name(self.0 / r.0)
            }
        }
        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                $name(-self.0)
            }
        }
    };
}

counting_float!(
    Cf64,
    "Counting double with FMA `two_prod` (what this crate executes)."
);
counting_float!(
    SplitF64,
    "Counting double with Dekker-split `two_prod` (the Table 1 convention)."
);

impl Fp for Cf64 {
    const ZERO: Self = Cf64(0.0);
    const ONE: Self = Cf64(1.0);
    #[inline]
    fn from_f64(x: f64) -> Self {
        Cf64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self.0
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        FMAS.with(|c| c.set(c.get() + 1));
        Cf64(f64::mul_add(self.0, a.0, b.0))
    }
    #[inline]
    fn fabs(self) -> Self {
        Cf64(self.0.abs())
    }
    #[inline]
    fn fsqrt(self) -> Self {
        SQRTS.with(|c| c.set(c.get() + 1));
        Cf64(self.0.sqrt())
    }
}

impl Fp for SplitF64 {
    const ZERO: Self = SplitF64(0.0);
    const ONE: Self = SplitF64(1.0);
    #[inline]
    fn from_f64(x: f64) -> Self {
        SplitF64(x)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self.0
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // An FMA *used as an FMA* would not appear under the split
        // convention; only `two_prod` is overridden, so a direct call is
        // modelled as mul + add.
        MULS.with(|c| c.set(c.get() + 1));
        ADDS.with(|c| c.set(c.get() + 1));
        SplitF64(f64::mul_add(self.0, a.0, b.0))
    }
    #[inline]
    fn fabs(self) -> Self {
        SplitF64(self.0.abs())
    }
    #[inline]
    fn fsqrt(self) -> Self {
        SQRTS.with(|c| c.set(c.get() + 1));
        SplitF64(self.0.sqrt())
    }
    #[inline]
    fn two_prod(self, b: Self) -> (Self, Self) {
        two_prod_split(self, b)
    }
}

/// Measured double-operation counts for one real multiple double
/// operation, for both `two_prod` conventions.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasuredOp {
    /// Total ops with FMA `two_prod` (FMA counted as one op).
    pub fma: u64,
    /// Total ops with Dekker-split `two_prod` (the Table 1 convention).
    pub split: u64,
}

/// Measured counts for add/sub/mul/div/sqrt of one precision.
#[derive(Clone, Copy, Debug, Default)]
pub struct MeasuredCosts {
    /// Limbs of the measured precision.
    pub limbs: usize,
    /// Addition.
    pub add: MeasuredOp,
    /// Subtraction.
    pub sub: MeasuredOp,
    /// Multiplication.
    pub mul: MeasuredOp,
    /// Division.
    pub div: MeasuredOp,
    /// Square root.
    pub sqrt: MeasuredOp,
}

macro_rules! measure_type {
    ($limbs:expr, $addf:path, $subf:path, $mulf:path, $divf:path, $sqrtf:path, $mk:expr) => {{
        fn count_one<F: Fp>(op: impl Fn([F; $limbs], [F; $limbs]) -> [F; $limbs]) -> u64 {
            let a: [F; $limbs] = $mk(1.0 / 3.0);
            let b: [F; $limbs] = $mk(1.0 / 7.0);
            let (_, t) = tally(|| op(a, b));
            t.total()
        }
        fn mk_op(fma: u64, split: u64) -> MeasuredOp {
            MeasuredOp { fma, split }
        }
        MeasuredCosts {
            limbs: $limbs,
            add: mk_op(
                count_one::<Cf64>(|a, b| $addf(a, b)),
                count_one::<SplitF64>(|a, b| $addf(a, b)),
            ),
            sub: mk_op(
                count_one::<Cf64>(|a, b| $subf(a, b)),
                count_one::<SplitF64>(|a, b| $subf(a, b)),
            ),
            mul: mk_op(
                count_one::<Cf64>(|a, b| $mulf(a, b)),
                count_one::<SplitF64>(|a, b| $mulf(a, b)),
            ),
            div: mk_op(
                count_one::<Cf64>(|a, b| $divf(a, b)),
                count_one::<SplitF64>(|a, b| $divf(a, b)),
            ),
            sqrt: mk_op(
                count_one::<Cf64>(|a, _| $sqrtf(a)),
                count_one::<SplitF64>(|a, _| $sqrtf(a)),
            ),
        }
    }};
}

fn seed_limbs<F: Fp, const M: usize>(x: f64) -> [F; M] {
    // a value with all limbs populated so no branch shortcuts fire
    let mut out = [F::ZERO; M];
    let mut v = x;
    for o in out.iter_mut() {
        *o = F::from_f64(v);
        v *= 2f64.powi(-53);
    }
    out
}

/// Measure dd counts by instrumented execution.
pub fn measure_dd() -> MeasuredCosts {
    measure_type!(
        2,
        dd::dd_add,
        dd::dd_sub,
        dd::dd_mul,
        dd::dd_div,
        dd::dd_sqrt,
        seed_limbs
    )
}

/// Measure qd counts by instrumented execution.
pub fn measure_qd() -> MeasuredCosts {
    measure_type!(
        4,
        qd::qd_add,
        qd::qd_sub,
        qd::qd_mul,
        qd::qd_div,
        qd::qd_sqrt,
        seed_limbs
    )
}

/// Measure od counts by instrumented execution.
pub fn measure_od() -> MeasuredCosts {
    measure_type!(
        8,
        od::od_add,
        od::od_sub,
        od::od_mul,
        od::od_div,
        od::od_sqrt,
        seed_limbs
    )
}

/// The measured cost table (FMA convention) for a real precision; falls
/// back to ideal 1.0 for plain doubles.
pub fn measured_real_cost(limbs: usize) -> OpCost {
    let m = match limbs {
        1 => {
            return OpCost {
                add: 1.0,
                sub: 1.0,
                mul: 1.0,
                div: 1.0,
                sqrt: 1.0,
            }
        }
        2 => measure_dd(),
        4 => measure_qd(),
        8 => measure_od(),
        _ => panic!("unsupported limb count {limbs}"),
    };
    OpCost {
        add: m.add.fma as f64,
        sub: m.sub.fma as f64,
        mul: m.mul.fma as f64,
        div: m.div.fma as f64,
        sqrt: m.sqrt.fma as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_result_matches_plain_f64() {
        let a = seed_limbs::<Cf64, 4>(1.0 / 3.0);
        let b = seed_limbs::<Cf64, 4>(1.0 / 7.0);
        let (r, _) = tally(|| qd::qd_mul(a, b));
        let ap = seed_limbs::<f64, 4>(1.0 / 3.0);
        let bp = seed_limbs::<f64, 4>(1.0 / 7.0);
        let rp = qd::qd_mul(ap, bp);
        for i in 0..4 {
            assert_eq!(r[i].0, rp[i], "limb {i} diverged under counting");
        }
    }

    #[test]
    fn dd_add_measures_twenty_ops() {
        // the accurate ieee_add is exactly the Table 1 "add" Σ = 20
        let m = measure_dd();
        assert_eq!(m.add.fma, 20);
        assert_eq!(m.add.split, 20); // no products in addition
    }

    #[test]
    fn split_mul_costs_more_than_fma_mul() {
        for m in [measure_dd(), measure_qd(), measure_od()] {
            assert!(
                m.mul.split > m.mul.fma,
                "{} limbs: split {} <= fma {}",
                m.limbs,
                m.mul.split,
                m.mul.fma
            );
        }
    }

    #[test]
    fn costs_grow_with_precision() {
        let (d, q, o) = (measure_dd(), measure_qd(), measure_od());
        assert!(d.add.fma < q.add.fma && q.add.fma < o.add.fma);
        assert!(d.mul.fma < q.mul.fma && q.mul.fma < o.mul.fma);
        assert!(d.div.fma < q.div.fma && q.div.fma < o.div.fma);
    }

    /// The `(fma, split)` tallies `gpusim::model` prices kernels from
    /// (through `S::measured_cost()`), recorded before PR 19's
    /// renormalization fast paths. A change to the arithmetic that adds or
    /// drops a counted operation on these operands moves every `sim_*`
    /// number, and fails here first.
    #[test]
    fn tallies_that_price_the_sim_clock_are_pinned() {
        let pairs =
            |m: MeasuredCosts| [m.add, m.sub, m.mul, m.div, m.sqrt].map(|op| (op.fma, op.split));
        assert_eq!(
            pairs(measure_dd()),
            [(20, 20), (20, 20), (9, 24), (70, 100), (43, 44)]
        );
        assert_eq!(
            pairs(measure_qd()),
            [(82, 82), (82, 82), (232, 322), (820, 1000), (3165, 4200)]
        );
        assert_eq!(
            pairs(measure_od()),
            [
                (264, 264),
                (264, 264),
                (904, 1324),
                (4968, 5913),
                (14886, 20766)
            ]
        );
    }

    /// The cost model's first check against the paper: under the Table 1
    /// convention (Dekker-split `two_prod`), the measured qd/dd and od/dd
    /// ratios of add and mul stay within ±30 % of the Table 1 Σ ratios
    /// (`paper_real_cost`). Measured today: add 4.10 against 4.45 and
    /// 13.2 against 13.45; mul 13.4 against 14.6 and 55.2 against 75.7.
    /// od mul is the outlier, at −27 %.
    #[test]
    fn split_ratios_track_table1_within_30_percent() {
        use crate::cost::paper_real_cost;
        let (d, q, o) = (measure_dd(), measure_qd(), measure_od());
        let (pd, pq, po) = (paper_real_cost(2), paper_real_cost(4), paper_real_cost(8));
        let r = |hi: MeasuredOp, lo: MeasuredOp| hi.split as f64 / lo.split as f64;
        for (name, got, want) in [
            ("qd/dd add", r(q.add, d.add), pq.add / pd.add),
            ("od/dd add", r(o.add, d.add), po.add / pd.add),
            ("qd/dd mul", r(q.mul, d.mul), pq.mul / pd.mul),
            ("od/dd mul", r(o.mul, d.mul), po.mul / pd.mul),
        ] {
            assert!(
                (got / want - 1.0).abs() <= 0.30,
                "{name}: measured {got:.2} vs Table 1 {want:.2}"
            );
        }
    }

    #[test]
    fn dd_split_mul_is_near_table1() {
        // Table 1 says dd mul = 23 ops under the split convention;
        // our algorithm is QDlib's, whose tally is close but not identical.
        let m = measure_dd();
        assert!(
            (m.mul.split as i64 - 23).unsigned_abs() <= 8,
            "dd split mul = {}",
            m.mul.split
        );
    }
}
