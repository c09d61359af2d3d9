//! The outside-in layer trace: spans recorded from the benchmark's own
//! files around the calls into each layer, kept in memory and flushed at
//! exit.
//!
//! The traced pass drives the same scripted sessions in-process through
//! public APIs only — `RunSpec::session` → `plan_step` / `step_parts` →
//! `StepDriver::step_with` → `complete_step` — handing each step an
//! evaluator whose backend is [`TracingBackend`]. That backend scores a
//! batch in a serial pass, calling the two halves of
//! `StepContext::fitness_with` (`simulate_arena_kernel`, then
//! `jaccard_at_time`) under a span each, so its results are bit-identical
//! to the real pool's and the traced run re-checks every digest.

use crate::clock::now_ns;
use crate::workload::{Golden, Slot};
use ess::fitness::{ScenarioEvaluator, StepContext};
use ess_service::{SessionEvent, StepPlan};
use evoalg::GenomeMatrix;
use firelib::{ScenarioSpace, SimArena};
use landscape::jaccard_at_time;
use parworker::Backend;
use std::io::Write;
use std::sync::{Arc, Mutex};

pub const SESSION: &str = "session";
pub const SESSION_BUILD: &str = "service.session_build";
pub const CASE_BUILD: &str = "firelib.case_build";
pub const STEP: &str = "ess.step";
pub const BATCH: &str = "ess.batch";
pub const SIMULATE: &str = "firelib.simulate";
pub const JACCARD: &str = "landscape.jaccard";

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Script position of the session this span belongs to.
    pub session: u32,
    /// A count measured at the boundary: genomes of a batch, raster cells
    /// of a Jaccard call.
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Part of `[start, end)` covered by the union of `children` intervals
/// (clipped to it).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(slot) = span.parent.and_then(|p| children.get_mut(p as usize)) {
            slot.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Checks the self-time arithmetic on a hand-worked tree.
pub fn self_check() -> Result<(), String> {
    let span = |start_ns, end_ns, parent| Span {
        name: "t",
        start_ns,
        end_ns,
        parent,
        session: 0,
        count: 0,
    };
    // A 100 ns root with children [10,30) and [20,50) (overlapping: 40 ns
    // covered) and [90,120) (clipped to 10 ns); the first child has its
    // own 5 ns child.
    let spans = [
        span(0, 100, None),
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),
        span(90, 120, Some(0)),
        span(12, 17, Some(1)),
    ];
    let got = self_times_ns(&spans);
    let want = vec![50, 15, 30, 30, 5];
    (got == want)
        .then_some(())
        .ok_or(format!("self times {got:?}, want {want:?}"))
}

/// A batch the traced pass saw, kept for the replay probes.
pub struct RecordedBatch {
    pub ctx: Arc<StepContext>,
    pub genomes: GenomeMatrix,
    pub fitness: Vec<f64>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    batch_sizes: Vec<usize>,
    batches: Vec<RecordedBatch>,
    arenas: Vec<((usize, usize), SimArena)>,
}

/// How many batches the traced pass keeps for replay (the first ones of
/// each step, so every case and interval of the subset is represented).
const KEEP_BATCHES: usize = 32;
const KEEP_PER_STEP: usize = 2;

/// The span sink. Disabled, every call returns at once without reading
/// the clock — the "tracing off" twin the overhead is measured against.
#[derive(Clone)]
pub struct Recorder {
    enabled: bool,
    inner: Arc<Mutex<Inner>>,
}

const POISONED: &str = "a traced step panicked while recording";

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    pub fn open(&self, name: &'static str, parent: Option<u32>, session: u32, count: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let mut inner = self.inner.lock().expect(POISONED);
        inner.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            session,
            count,
        });
        let id = inner.spans.len() - 1;
        // Stamped last, so the bookkeeping above is outside the span.
        inner.spans[id].start_ns = now_ns();
        id as u32
    }

    pub fn close(&self, id: u32) {
        if !self.enabled {
            return;
        }
        let end = now_ns();
        if let Some(span) = self
            .inner
            .lock()
            .expect(POISONED)
            .spans
            .get_mut(id as usize)
        {
            span.end_ns = end;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.lock().expect(POISONED).spans.clone()
    }

    pub fn batch_sizes(&self) -> Vec<usize> {
        self.inner.lock().expect(POISONED).batch_sizes.clone()
    }

    pub fn take_batches(&self) -> Vec<RecordedBatch> {
        std::mem::take(&mut self.inner.lock().expect(POISONED).batches)
    }

    /// `(scratch bytes, raster bytes)` summed over the arenas the traced
    /// pass grew, one per grid shape.
    pub fn arena_bytes(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect(POISONED);
        inner.arenas.iter().fold((0, 0), |(s, r), (_, a)| {
            (s + a.scratch_bytes(), r + a.raster_bytes())
        })
    }

    /// Writes one JSON object per span, in recording order.
    pub fn flush_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.session, s.count
            )?;
        }
        out.flush()
    }
}

/// The benchmark's own evaluation backend: a serial pass with a span
/// around each half of an evaluation.
pub struct TracingBackend {
    ctx: Arc<StepContext>,
    recorder: Recorder,
    step_span: u32,
    session: u32,
    batches_this_step: usize,
}

impl Backend<Vec<f64>, f64> for TracingBackend {
    fn map(&mut self, tasks: Vec<Vec<f64>>) -> Vec<f64> {
        let ctx = &self.ctx;
        let rec = &self.recorder;
        let batch = rec.open(
            BATCH,
            Some(self.step_span),
            self.session,
            tasks.len() as u64,
        );
        let terrain = ctx.sim().terrain();
        let shape = (terrain.rows(), terrain.cols());
        // The arena leaves the shared store for the duration of the batch,
        // so no lock is held across a simulation.
        let mut arena = {
            let mut inner = rec.inner.lock().expect(POISONED);
            match inner.arenas.iter().position(|(s, _)| *s == shape) {
                Some(i) => inner.arenas.swap_remove(i).1,
                None => SimArena::new(shape.0, shape.1),
            }
        };
        let cells = (shape.0 * shape.1) as u64;
        let mut fitness = Vec::with_capacity(tasks.len());
        for genes in &tasks {
            let scenario = ScenarioSpace.decode(genes);
            let sim_span = rec.open(SIMULATE, Some(batch), self.session, 1);
            let map = ctx.sim().simulate_arena_kernel(
                &scenario,
                ctx.from_line(),
                ctx.t0(),
                ctx.duration(),
                &mut arena,
                ctx.kernel(),
            );
            rec.close(sim_span);
            let jaccard_span = rec.open(JACCARD, Some(batch), self.session, cells);
            fitness.push(jaccard_at_time(
                ctx.target_line(),
                map,
                ctx.t1(),
                Some(ctx.from_line()),
            ));
            rec.close(jaccard_span);
        }
        rec.close(batch);
        let mut inner = rec.inner.lock().expect(POISONED);
        inner.arenas.push((shape, arena));
        if !rec.enabled {
            return fitness;
        }
        inner.batch_sizes.push(tasks.len());
        if self.batches_this_step < KEEP_PER_STEP && inner.batches.len() < KEEP_BATCHES {
            inner.batches.push(RecordedBatch {
                ctx: Arc::clone(ctx),
                genomes: GenomeMatrix::from_rows(&tasks),
                fitness: fitness.clone(),
            });
        }
        self.batches_this_step += 1;
        fitness
    }

    fn name(&self) -> String {
        "tracing-serial".to_string()
    }

    fn workers(&self) -> usize {
        1
    }
}

/// What a traced (or recorder-off) pass over a set of sessions produced.
pub struct TracedPass {
    pub wall_s: f64,
    pub failures: Vec<String>,
}

/// Drives `slots` one session at a time through the public session API
/// with [`TracingBackend`] evaluators, checking every digest.
pub fn drive(slots: &[Slot], golden: &Golden, recorder: &Recorder) -> TracedPass {
    let start = now_ns();
    let mut pass = TracedPass {
        wall_s: 0.0,
        failures: Vec::new(),
    };
    for (i, slot) in slots.iter().enumerate() {
        let sid = i as u32;
        let root = recorder.open(SESSION, None, sid, 0);
        let build = recorder.open(SESSION_BUILD, Some(root), sid, 0);
        let session = slot.spec().session();
        recorder.close(build);
        let mut session = match session {
            Ok(s) => s,
            Err(e) => {
                pass.failures.push(format!("{slot:?}: {e}"));
                continue;
            }
        };
        let outcome = loop {
            match session.plan_step() {
                StepPlan::Settled(event) => break event,
                StepPlan::Ready => {
                    let step_start = now_ns();
                    let step_span = recorder.open(STEP, Some(root), sid, 0);
                    let (driver, optimizer) = session.step_parts();
                    let report = driver.step_with(optimizer, |ctx| {
                        let backend = TracingBackend {
                            ctx: Arc::clone(&ctx),
                            recorder: recorder.clone(),
                            step_span,
                            session: sid,
                            batches_this_step: 0,
                        };
                        ScenarioEvaluator::with_backend(ctx, Box::new(backend))
                    });
                    recorder.close(step_span);
                    let elapsed_ms = (now_ns() - step_start) as f64 / 1e6;
                    match report {
                        Some(step) => {
                            session.complete_step(step, elapsed_ms);
                        }
                        // `plan_step` just said Ready, so the driver has a
                        // step left; a refusal would loop forever.
                        None => break SessionEvent::Finished(session.report()),
                    }
                }
            }
        };
        recorder.close(root);
        if let Err(e) = golden.check_event(slot, &outcome) {
            pass.failures.push(format!("traced {e}"));
        }
    }
    pass.wall_s = (now_ns() - start) as f64 / 1e9;
    pass
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_time_is_duration_minus_child_cover() {
        super::self_check().unwrap();
    }
}
