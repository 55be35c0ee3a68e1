//! Workload generators: randomized jobs shaped like the paper's
//! motivating applications.
//!
//! The power-flow generator models the holomorphic embedding load flow
//! method (the paper's §1.1): per network, a family of small dense
//! systems — Padé-denominator solves and Newton corrections at a bus
//! count's scale — in hardware-double data that must be *solved* far
//! beyond hardware-double accuracy. Systems are drawn diagonally
//! dominant so every precision rung reaches its unit roundoff (the
//! paper's §4.1 well-conditioned convention); accuracy targets are
//! mixed across the d → dd → qd → od ladder the way a tracker mixes
//! loose predictor steps with tight corrector steps.

use mdls_matrix::HostMat;
use multidouble::random::rand_real;
use rand::Rng;

use crate::job::Job;
use crate::scheduler::JobShape;

/// Column counts of the generated systems (bus-system-scaled: a handful
/// of buses up to a few dozen states).
const COLS: [usize; 6] = [6, 8, 10, 12, 16, 24];

/// Extra rows for the overdetermined (measurement-augmented) variants.
const EXTRA_ROWS: [usize; 3] = [0, 4, 8];

/// Accuracy targets, weighted toward the cheap rungs like a tracker's
/// step mix: many hardware-double predictor solves, fewer deep
/// corrector solves.
const DIGITS: [u32; 6] = [10, 12, 25, 25, 50, 100];

/// Generate `count` randomized power-flow-shaped jobs.
pub fn power_flow_jobs<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<Job> {
    (0..count as u64)
        .map(|id| {
            let cols = COLS[pick(rng, COLS.len())];
            let rows = cols + EXTRA_ROWS[pick(rng, EXTRA_ROWS.len())];
            let target_digits = DIGITS[pick(rng, DIGITS.len())];
            well_conditioned_job(id, rows, cols, target_digits, rng)
        })
        .collect()
}

/// One well-conditioned random system of an explicit shape: dense
/// random entries with a dominant diagonal (tame conditioning),
/// quantized to 2⁻²⁰ so that products against a small-integer solution
/// are exact dyadics. `b = A x_true` is computed *exactly* in f64
/// (quantized entries × integer solution never round): the right hand
/// side lies exactly in the column space, so even tall
/// measurement-augmented systems solve to the working precision and
/// the accuracy target is checkable at every rung.
fn well_conditioned_job<R: Rng + ?Sized>(
    id: u64,
    rows: usize,
    cols: usize,
    target_digits: u32,
    rng: &mut R,
) -> Job {
    let a = HostMat::<f64>::from_fn(rows, cols, |r, c| {
        let u: f64 = rand_real(rng);
        let q = (u * (1 << 20) as f64).round() / (1 << 20) as f64;
        q + if r == c { 4.0 } else { 0.0 }
    });
    let x_true: Vec<f64> = (0..cols)
        .map(|_| (rand_real::<f64, _>(rng) * 8.0).round())
        .collect();
    let b = a.matvec(&x_true);
    Job::new(id, a, b, target_digits)
}

/// Functional jobs for an explicit shape queue: one well-conditioned
/// random system per [`JobShape`], ids in queue order. This is the
/// bridge from a model-only shape mix ([`workload_mix`]) to jobs the
/// functional solve paths accept —
/// and, because the caller controls shape repetition, the way to build
/// queues the micro-batcher can actually fuse.
pub fn jobs_for_shapes<R: Rng + ?Sized>(shapes: &[JobShape], rng: &mut R) -> Vec<Job> {
    shapes
        .iter()
        .enumerate()
        .map(|(id, s)| well_conditioned_job(id as u64, s.rows, s.cols, s.target_digits, rng))
        .collect()
}

/// Generate `count` randomized path-tracker-shaped jobs: a mix of
/// speculative **predictor** solves (loose targets, priority 0) and
/// **corrector** solves (deep targets, priority 1, deadline-tagged) —
/// the workload the priority-aware stream exists for. Roughly one job
/// in three is a corrector, interleaved with the predictors the way a
/// tracker alternates step kinds.
pub fn tracker_jobs<R: Rng + ?Sized>(count: usize, rng: &mut R) -> Vec<Job> {
    power_flow_jobs(count, rng)
        .into_iter()
        .enumerate()
        .map(|(i, mut job)| {
            if i % 3 == 2 {
                // corrector: must converge before the tracker can step
                job.target_digits = job.target_digits.max(25);
                job.priority = 1;
                job.deadline_ms = Some((i as f64 + 1.0) * 0.5);
            } else {
                // predictor: speculative, loose, droppable behind correctors
                job.target_digits = job.target_digits.min(14);
            }
            job
        })
        .collect()
}

/// The deterministic shape queue of the dispatch-policy A/B: shapes
/// *and* rungs vary sharply per job, so per-job cost varies sharply
/// across device models — exactly the queue that exposes the greedy
/// rule's blindness to device speed (the queue of
/// `sect_makespan_never_loses_to_greedy_on_heterogeneous_pools`).
pub fn workload_mix(count: usize) -> Vec<JobShape> {
    (0..count)
        .map(|i| {
            let cols = [32, 64, 96, 128, 192, 256][i % 6];
            JobShape {
                rows: cols + [0, 32][i % 2],
                cols,
                target_digits: [12, 25, 25, 50, 50, 100][i % 6],
            }
        })
        .collect()
}

/// Bursty tracker jobs: the [`tracker_jobs`] mix with simulated
/// arrivals — jobs land in bursts of `burst` every `gap_ms` (a tracker
/// stepping a path emits its predictor/corrector solves together), and
/// every deadline is re-anchored relative to its job's arrival. The
/// stream's reorder buffer then models a live bursty queue, and
/// comparing each outcome's `end_ms` against its deadline counts real
/// deadline *misses*, not just deadline ordering.
pub fn bursty_tracker_jobs<R: Rng + ?Sized>(
    count: usize,
    burst: usize,
    gap_ms: f64,
    rng: &mut R,
) -> Vec<Job> {
    tracker_jobs(count, rng)
        .into_iter()
        .enumerate()
        .map(|(i, mut job)| {
            let release = (i / burst.max(1)) as f64 * gap_ms;
            job.release_ms = Some(release);
            if let Some(d) = job.deadline_ms {
                job.deadline_ms = Some(release + d.max(gap_ms));
            }
            job
        })
        .collect()
}

fn pick<R: Rng + ?Sized>(rng: &mut R, n: usize) -> usize {
    (rng.random_range(0.0..n as f64) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn jobs_are_solvable_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let jobs = power_flow_jobs(100, &mut rng);
        assert_eq!(jobs.len(), 100);
        for job in &jobs {
            assert!(job.rows() >= job.cols());
            assert_eq!(job.b.len(), job.rows());
            assert!(COLS.contains(&job.cols()));
        }
        // ids are unique and the mix covers several shapes and targets
        let mut shapes: Vec<_> = jobs.iter().map(|j| (j.rows(), j.cols())).collect();
        shapes.sort();
        shapes.dedup();
        assert!(shapes.len() >= 4, "only {} distinct shapes", shapes.len());
        let mut digits: Vec<_> = jobs.iter().map(|j| j.target_digits).collect();
        digits.sort();
        digits.dedup();
        assert!(digits.len() >= 3, "only {} distinct targets", digits.len());
    }

    #[test]
    fn shapes_produce_matching_jobs() {
        let shapes = workload_mix(6);
        let mut rng = StdRng::seed_from_u64(3);
        let jobs = jobs_for_shapes(&shapes, &mut rng);
        assert_eq!(jobs.len(), shapes.len());
        for (job, s) in jobs.iter().zip(&shapes) {
            assert_eq!((job.rows(), job.cols()), (s.rows, s.cols));
            assert_eq!(job.target_digits, s.target_digits);
            assert_eq!(job.b.len(), s.rows);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = power_flow_jobs(5, &mut StdRng::seed_from_u64(9));
        let b = power_flow_jobs(5, &mut StdRng::seed_from_u64(9));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.a, y.a);
            assert_eq!(x.b, y.b);
            assert_eq!(x.target_digits, y.target_digits);
        }
    }
}
