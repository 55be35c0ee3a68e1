//! Global device memory with the paper's staggered multiple double layout.
//!
//! A vector of `n` multiple doubles with `m` limb planes is stored as `m`
//! contiguous arrays of `n` doubles — "an array `U = [U1, U2, ..., Um]` of
//! `m` matrices, where `U1` holds the most significant doubles and `Um`
//! the least significant doubles" (paper, end of Algorithm 1). Complex
//! scalars add the imaginary planes after the real ones.
//!
//! Buffers are written through `&self` so that blocks of one kernel launch
//! can execute on parallel host threads, mirroring CUDA semantics: blocks
//! of a launch must write disjoint elements (this is upheld by every
//! kernel in this workspace and spot-checked by the sequential/parallel
//! equivalence tests).
//!
//! An access costs its range check plus `PLANES` plain loads or stores —
//! nothing is counted here. A kernel's global memory traffic is what its
//! driver *declares* in [`crate::KernelCost`] (`elems_read`,
//! `elems_written`); that declaration is the traffic of record for the
//! timing model and the roofline.
//!
//! Two granularities: [`DeviceBuf::get`]/[`DeviceBuf::set`] move one
//! scalar and check one index; [`DeviceBuf::load_run`]/
//! [`DeviceBuf::run_to_vec`]/[`DeviceBuf::store_run`] (and the column
//! forms on [`DeviceMat`]) move
//! a contiguous run to or from a block-local `[S]` — the simulator's
//! shared memory — and check the whole range once. Kernel bodies stage
//! columns through the run accessors so their inner loops walk plain
//! slices.

use core::cell::UnsafeCell;

use multidouble::MdScalar;

/// One f64 cell that can be shared across block threads.
#[repr(transparent)]
struct Cell64(UnsafeCell<f64>);

// Safety: access discipline is the CUDA contract — concurrent writes to the
// same element within one launch are forbidden by kernel construction.
unsafe impl Sync for Cell64 {}

/// A device buffer of `len` scalars stored as `S::PLANES` limb planes.
pub struct DeviceBuf<S: MdScalar> {
    /// plane-major storage: cell `p * len + i` is plane `p` of element
    /// `i`; holds `live * S::PLANES` cells.
    data: Vec<Cell64>,
    len: usize,
    /// Addressable elements: `len` when materialized, 0 for a model-only
    /// placeholder. The one bound every access is checked against.
    live: usize,
    _marker: core::marker::PhantomData<S>,
}

impl<S: MdScalar> DeviceBuf<S> {
    /// Allocate a zeroed buffer of `len` scalars.
    pub fn zeroed(len: usize) -> Self {
        let mut data = Vec::with_capacity(len * S::PLANES);
        data.resize_with(len * S::PLANES, || Cell64(UnsafeCell::new(0.0)));
        DeviceBuf {
            data,
            len,
            live: len,
            _marker: core::marker::PhantomData,
        }
    }

    /// An empty placeholder used in model-only simulations (holds no
    /// storage; any access panics).
    pub fn unmaterialized(len: usize) -> Self {
        DeviceBuf {
            data: Vec::new(),
            len,
            live: 0,
            _marker: core::marker::PhantomData,
        }
    }

    /// Whether the buffer holds real storage.
    pub fn is_materialized(&self) -> bool {
        self.live == self.len
    }

    /// Number of scalars.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Panic unless elements `start..start + n` are addressable.
    #[inline(always)]
    fn check_run(&self, start: usize, n: usize) {
        if start > self.live || n > self.live - start {
            self.bad_run(start, n);
        }
    }

    #[cold]
    #[inline(never)]
    fn bad_run(&self, start: usize, n: usize) -> ! {
        assert!(
            self.is_materialized(),
            "access to an unmaterialized (model-only) device buffer"
        );
        panic!(
            "elements {start}..{} out of range {}",
            start.saturating_add(n),
            self.len
        );
    }

    /// Pointer to plane `p` of element `i`.
    ///
    /// # Safety
    /// `p < S::PLANES` and `i < self.live`.
    #[inline(always)]
    unsafe fn cell(&self, p: usize, i: usize) -> *mut f64 {
        // Safety: `data` holds `live * PLANES` cells and `live == len`
        // whenever `live > i`, so `p * len + i` is in bounds.
        unsafe { self.data.get_unchecked(p * self.len + i).0.get() }
    }

    /// Gather all limb planes of element `i`.
    ///
    /// # Safety
    /// `i < self.live`.
    #[inline(always)]
    unsafe fn gather(&self, i: usize) -> S {
        S::from_plane_fn(|p| {
            // a scalar type asking for a plane it does not have must not
            // reach the unchecked load (folds away for a constant `p`)
            assert!(p < S::PLANES);
            // Safety: `p` checked above, `i` by the caller; concurrent
            // reads are fine.
            unsafe { *self.cell(p, i) }
        })
    }

    /// Scatter all limb planes of `v` to element `i`.
    ///
    /// # Safety
    /// `i < self.live`.
    #[inline(always)]
    unsafe fn scatter(&self, i: usize, v: S) {
        for p in 0..S::PLANES {
            // Safety: `p` bounded by the loop, `i` by the caller;
            // disjoint-write contract per launch.
            unsafe { *self.cell(p, i) = v.plane(p) };
        }
    }

    /// Read scalar `i`, gathering all limb planes.
    #[inline]
    pub fn get(&self, i: usize) -> S {
        self.check_run(i, 1);
        // Safety: `check_run` proved `i < live`.
        unsafe { self.gather(i) }
    }

    /// Write scalar `i`, scattering all limb planes.
    #[inline]
    pub fn set(&self, i: usize, v: S) {
        self.check_run(i, 1);
        // Safety: `check_run` proved `i < live`.
        unsafe { self.scatter(i, v) }
    }

    /// Load the contiguous run `start..start + out.len()` into the
    /// block-local `out` (one range check for the whole run).
    // one copy per scalar type, not per call site: the call is paid per
    // run, and the gather loop inlined into every kernel body grew the
    // binary by a sixth
    #[inline(never)]
    pub fn load_run(&self, start: usize, out: &mut [S]) {
        self.check_run(start, out.len());
        for (k, o) in out.iter_mut().enumerate() {
            // Safety: `check_run` proved `start + k < live` for every
            // `k < out.len()`.
            *o = unsafe { self.gather(start + k) };
        }
    }

    /// The contiguous run `start..start + n` as a fresh block-local
    /// vector (one range check for the whole run).
    pub fn run_to_vec(&self, start: usize, n: usize) -> Vec<S> {
        self.check_run(start, n);
        (start..start + n)
            // Safety: `check_run` proved `i < start + n <= live`.
            .map(|i| unsafe { self.gather(i) })
            .collect()
    }

    /// Store the block-local `src` to the contiguous run
    /// `start..start + src.len()` (one range check for the whole run).
    // outlined for the same reason as `load_run`
    #[inline(never)]
    pub fn store_run(&self, start: usize, src: &[S]) {
        self.check_run(start, src.len());
        for (k, v) in src.iter().enumerate() {
            // Safety: `check_run` proved `start + k < live` for every
            // `k < src.len()`.
            unsafe { self.scatter(start + k, *v) };
        }
    }

    /// Host-to-device copy.
    pub fn upload(&self, host: &[S]) {
        assert_eq!(host.len(), self.len, "upload size mismatch");
        self.store_run(0, host);
    }

    /// Device-to-host copy.
    pub fn download(&self) -> Vec<S> {
        self.run_to_vec(0, self.len)
    }

    /// Raw view of one limb plane (for layout tests).
    pub fn plane_snapshot(&self, plane: usize) -> Vec<f64> {
        assert!(plane < S::PLANES);
        (0..self.live)
            // Safety: plane asserted above, `i < live` by the range, and
            // no kernel is running while a layout test snapshots.
            .map(|i| unsafe { *self.cell(plane, i) })
            .collect()
    }
}

/// A device matrix in **column-major** order (LAPACK convention: a column
/// of a tile is contiguous, which is what the Householder kernels walk).
pub struct DeviceMat<S: MdScalar> {
    /// Backing buffer of `rows * cols` scalars.
    pub buf: DeviceBuf<S>,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl<S: MdScalar> DeviceMat<S> {
    /// Allocate a zeroed matrix.
    pub fn zeroed(rows: usize, cols: usize) -> Self {
        DeviceMat {
            buf: DeviceBuf::zeroed(rows * cols),
            rows,
            cols,
        }
    }

    /// Model-only placeholder.
    pub fn unmaterialized(rows: usize, cols: usize) -> Self {
        DeviceMat {
            buf: DeviceBuf::unmaterialized(rows * cols),
            rows,
            cols,
        }
    }

    /// Linear index of `(r, c)`; panics when `(r, c)` is outside the
    /// matrix (a row index past the column's end must not alias the
    /// next column).
    #[inline(always)]
    pub fn idx(&self, r: usize, c: usize) -> usize {
        self.col_run(c, r, 1)
    }

    /// Linear index of `(r0, c)`, the start of the run of `n` rows of
    /// column `c`; panics unless the whole run lies inside the column.
    #[inline(always)]
    fn col_run(&self, c: usize, r0: usize, n: usize) -> usize {
        assert!(
            c < self.cols && r0 <= self.rows && n <= self.rows - r0,
            "rows {r0}..{} of column {c} outside a {} x {} matrix",
            r0.saturating_add(n),
            self.rows,
            self.cols
        );
        c * self.rows + r0
    }

    /// Read element `(r, c)`.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> S {
        self.buf.get(self.idx(r, c))
    }

    /// Write element `(r, c)`.
    #[inline(always)]
    pub fn set(&self, r: usize, c: usize, v: S) {
        self.buf.set(self.idx(r, c), v)
    }

    /// Load rows `r0..r0 + out.len()` of column `c` into the block-local
    /// `out` (one range check for the whole run).
    #[inline]
    pub fn load_col(&self, c: usize, r0: usize, out: &mut [S]) {
        self.buf.load_run(self.col_run(c, r0, out.len()), out)
    }

    /// Rows `r0..r0 + n` of column `c` as a fresh block-local vector
    /// (one range check for the whole run).
    pub fn col_to_vec(&self, c: usize, r0: usize, n: usize) -> Vec<S> {
        self.buf.run_to_vec(self.col_run(c, r0, n), n)
    }

    /// Store the block-local `src` to rows `r0..r0 + src.len()` of
    /// column `c` (one range check for the whole run).
    #[inline]
    pub fn store_col(&self, c: usize, r0: usize, src: &[S]) {
        self.buf.store_run(self.col_run(c, r0, src.len()), src)
    }

    /// Upload from a column-major host slice.
    pub fn upload_col_major(&self, host: &[S]) {
        self.buf.upload(host);
    }

    /// Download to a column-major vector.
    pub fn download_col_major(&self) -> Vec<S> {
        self.buf.download()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multidouble::{Complex, Dd, Qd};

    #[test]
    fn staggered_layout_is_plane_major() {
        let buf = DeviceBuf::<Dd>::zeroed(3);
        buf.set(0, Dd::from_parts(1.0, 1e-20));
        buf.set(1, Dd::from_parts(2.0, 2e-20));
        buf.set(2, Dd::from_parts(3.0, 3e-20));
        // plane 0 holds all the most significant doubles, contiguously
        assert_eq!(buf.plane_snapshot(0), vec![1.0, 2.0, 3.0]);
        assert_eq!(buf.plane_snapshot(1), vec![1e-20, 2e-20, 3e-20]);
    }

    #[test]
    fn complex_planes_real_then_imag() {
        let buf = DeviceBuf::<Complex<Dd>>::zeroed(2);
        let z = Complex::new(Dd::from_f64(1.5), Dd::from_f64(-2.5));
        buf.set(1, z);
        assert_eq!(buf.plane_snapshot(0), vec![0.0, 1.5]); // re hi
        assert_eq!(buf.plane_snapshot(2), vec![0.0, -2.5]); // im hi
        assert_eq!(buf.get(1), z);
    }

    #[test]
    fn upload_download_roundtrip() {
        let host = vec![Qd::from_f64(1.0), Qd::PI, Qd::from_f64(-3.25)];
        let buf = DeviceBuf::<Qd>::zeroed(3);
        buf.upload(&host);
        assert_eq!(buf.download(), host);
    }

    /// Store a run into the middle of a column, read it back, and check
    /// that nothing outside the run moved.
    fn column_run_roundtrip<S: MdScalar>(vals: [S; 3]) {
        let m = DeviceMat::<S>::zeroed(5, 3);
        m.store_col(1, 1, &vals);
        let mut back = [S::zero(); 3];
        m.load_col(1, 1, &mut back);
        assert_eq!(back, vals);
        assert_eq!(m.col_to_vec(1, 1, 3), vals);
        for c in 0..3 {
            for r in 0..5 {
                let want = if c == 1 && (1..4).contains(&r) {
                    vals[r - 1]
                } else {
                    S::zero()
                };
                assert_eq!(m.get(r, c), want, "element ({r}, {c})");
            }
        }
        // an empty run at the very end of a column is in range
        m.store_col(2, 5, &[]);
    }

    #[test]
    fn column_runs_roundtrip() {
        column_run_roundtrip([Dd::PI, Dd::from_parts(2.0, 2e-20), Dd::from_f64(-0.5)]);
        column_run_roundtrip([
            Complex::new(Qd::PI, Qd::from_f64(-1.0)),
            Complex::new(Qd::from_f64(0.25), Qd::PI),
            Complex::new(Qd::ONE, Qd::from_f64(7.0)),
        ]);
    }

    #[test]
    fn column_run_keeps_the_plane_major_layout() {
        let m = DeviceMat::<Dd>::zeroed(2, 2);
        m.store_col(
            1,
            0,
            &[Dd::from_parts(1.0, 1e-20), Dd::from_parts(2.0, 2e-20)],
        );
        assert_eq!(m.buf.plane_snapshot(0), vec![0.0, 0.0, 1.0, 2.0]);
        assert_eq!(m.buf.plane_snapshot(1), vec![0.0, 0.0, 1e-20, 2e-20]);
    }

    #[test]
    #[should_panic(expected = "rows 3..6 of column 0 outside a 5 x 3 matrix")]
    fn column_run_past_the_column_end_panics() {
        let m = DeviceMat::<Dd>::zeroed(5, 3);
        m.load_col(0, 3, &mut [Dd::ZERO; 3]);
    }

    #[test]
    #[should_panic(expected = "elements 2..5 out of range 4")]
    fn buffer_run_out_of_range_panics() {
        let buf = DeviceBuf::<Qd>::zeroed(4);
        buf.store_run(2, &[Qd::ONE; 3]);
    }

    #[test]
    #[should_panic(expected = "unmaterialized")]
    fn unmaterialized_run_panics() {
        let m = DeviceMat::<Dd>::unmaterialized(4, 4);
        m.load_col(0, 0, &mut [Dd::ZERO; 4]);
    }

    #[test]
    #[should_panic(expected = "unmaterialized")]
    fn unmaterialized_get_panics() {
        let _ = DeviceBuf::<Dd>::unmaterialized(4).get(0);
    }

    /// A row index one past the column end must not read `(0, 1)`.
    #[test]
    #[should_panic(expected = "rows 2..3 of column 0 outside a 2 x 3 matrix")]
    fn row_past_the_column_end_does_not_alias_the_next_column() {
        let m = DeviceMat::<f64>::zeroed(2, 3);
        m.set(0, 1, 7.0);
        let _ = m.get(2, 0);
    }

    /// `set(len, ..)` must panic before it stores any plane: with
    /// per-plane indexing, plane 0 of index `len` is plane 1 of element
    /// 0, and it used to be overwritten before the last plane's index
    /// finally panicked.
    #[test]
    #[should_panic(expected = "elements 3..4 out of range 3")]
    fn set_past_the_end_changes_no_element() {
        let host = vec![Dd::PI, Dd::from_parts(2.0, 2e-20), Dd::from_f64(-3.25)];
        let buf = DeviceBuf::<Dd>::zeroed(3);
        buf.upload(&host);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            buf.set(3, Dd::from_parts(9.0, 9e-20))
        }));
        assert_eq!(buf.download(), host);
        std::panic::resume_unwind(caught.expect_err("set(len, ..) must panic"));
    }

    #[test]
    fn matrix_is_column_major() {
        let m = DeviceMat::<f64>::zeroed(2, 3);
        m.set(0, 0, 1.0);
        m.set(1, 0, 2.0);
        m.set(0, 1, 3.0);
        assert_eq!(m.buf.plane_snapshot(0), vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "upload size mismatch")]
    fn upload_size_checked() {
        let buf = DeviceBuf::<f64>::zeroed(2);
        buf.upload(&[1.0]);
    }
}
