//! Host-clock spans for the traced run.
//!
//! The traced run wraps every kernel in [`Traced`], a forwarding
//! [`Kernel`] adapter that times each call the runtime makes into the
//! kernel layer (`program`, `config_words`, `execute`, `execute_fft`,
//! `execute_cpu`) and tags it with the job its input belongs to.  The
//! benchmark opens one *top* span around each call into the runtime
//! (`Server::run_stream`, `Pool::run_stream`) or the application
//! (`Vwr2aPipeline::run_window`); every kernel span recorded while a top
//! span is open is its child.  Spans live in memory and are written out
//! once the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::marker::PhantomData;
use std::path::Path;
use std::time::Instant;

use vwr2a_core::geometry::Geometry;
use vwr2a_core::KernelProgram;
use vwr2a_fftaccel::{FftAccelStats, FftAccelerator};
use vwr2a_runtime::{Kernel, LaunchCtx, Offload, Resources, Result};
use vwr2a_soc::cpu::{Cpu, CpuRunStats};
use vwr2a_soc::sram::Sram;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One call into the runtime or the application.
    Top,
    /// `Kernel::program`: a configuration-memory program build.
    Program,
    /// `Kernel::config_words`: the placement's footprint query.
    ConfigWords,
    /// `Kernel::execute`: one window on a CGRA array, simulator included.
    Execute,
    /// `Kernel::execute_fft`: one window on the fixed-function FFT engine.
    ExecuteFft,
    /// `Kernel::execute_cpu`: one window on the Cortex-M4 ISS.
    ExecuteCpu,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Top => "top",
            SpanKind::Program => "program",
            SpanKind::ConfigWords => "config_words",
            SpanKind::Execute => "execute",
            SpanKind::ExecuteFft => "execute_fft",
            SpanKind::ExecuteCpu => "execute_cpu",
        }
    }
}

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing top span, `None` outside every top span.
    pub parent: Option<usize>,
    /// Job the span's input belongs to, for window executions.
    pub job: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    enabled: bool,
    /// Spans of the round in progress.
    spans: Vec<Span>,
    /// Spans of finished rounds, for the span file.
    archive: Vec<Span>,
    open_top: Option<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        enabled: false,
        spans: Vec::new(),
        archive: Vec::new(),
        open_top: None,
    });
}

fn now_ns() -> u64 {
    RECORDER.with(|r| r.borrow().epoch.elapsed().as_nanos() as u64)
}

/// Turns span recording on or off (off by default).
pub fn set_enabled(enabled: bool) {
    RECORDER.with(|r| r.borrow_mut().enabled = enabled);
}

fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().enabled)
}

/// Runs `f` inside a top span (when recording is on).
pub fn top<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let index = r.spans.len();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            kind: SpanKind::Top,
            start_ns,
            end_ns: start_ns,
            parent: None,
            job: None,
        });
        r.open_top = Some(index);
        index
    });
    let value = f();
    let end_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[index].end_ns = end_ns;
        r.open_top = None;
    });
    value
}

/// Runs `f` as a kernel-layer span of `kind` (when recording is on).
fn span<T>(kind: SpanKind, job: Option<usize>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start_ns = now_ns();
    let value = f();
    let end_ns = now_ns();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open_top;
        r.spans.push(Span {
            kind,
            start_ns,
            end_ns,
            parent,
            job,
        });
    });
    value
}

/// Summarises the spans recorded since the last call and moves them to
/// the run's archive.
pub fn finish_round() -> SpanSummary {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let spans = std::mem::take(&mut r.spans);
        let summary = SpanSummary::of(&spans);
        let base = r.archive.len();
        r.archive.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        summary
    })
}

/// Every span of the finished rounds.
pub fn take_archive() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().archive))
}

/// Writes `spans` as tab-separated `index kind start_ns end_ns parent job`
/// lines (`-` for an absent parent or job).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tkind\tstart_ns\tend_ns\tparent\tjob")?;
    let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for (index, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{index}\t{}\t{}\t{}\t{}\t{}",
            s.kind.label(),
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.job)
        )?;
    }
    out.flush()
}

/// A window tagged with the job it belongs to — the input type of a
/// [`Traced`] kernel.
#[derive(Debug)]
pub struct Tagged<'a, I: ?Sized> {
    pub job: usize,
    pub input: &'a I,
}

/// Forwarding [`Kernel`] adapter that records a span around every call
/// into the wrapped kernel.  Cache keys, resources and offload
/// declarations pass through unchanged, so residency, placement and every
/// modelled number are the same as for the bare kernel.
#[derive(Debug)]
pub struct Traced<'a, K: Kernel + ?Sized> {
    inner: &'a K,
    _inputs: PhantomData<&'a K::Input>,
}

impl<'a, K: Kernel + ?Sized> Traced<'a, K> {
    pub fn new(inner: &'a K) -> Self {
        Self {
            inner,
            _inputs: PhantomData,
        }
    }
}

impl<'a, K: Kernel + ?Sized> Kernel for Traced<'a, K> {
    type Input = Tagged<'a, K::Input>;
    type Output = K::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cache_key(&self) -> String {
        self.inner.cache_key()
    }

    fn resources(&self) -> Resources {
        self.inner.resources()
    }

    fn program(&self, geometry: &Geometry) -> Result<KernelProgram> {
        span(SpanKind::Program, None, || self.inner.program(geometry))
    }

    fn config_words(&self, geometry: &Geometry) -> Result<usize> {
        span(SpanKind::ConfigWords, None, || {
            self.inner.config_words(geometry)
        })
    }

    fn execute(&self, ctx: &mut LaunchCtx<'_>, input: &Self::Input) -> Result<Self::Output> {
        span(SpanKind::Execute, Some(input.job), || {
            self.inner.execute(ctx, input.input)
        })
    }

    fn offload(&self) -> Offload {
        self.inner.offload()
    }

    fn execute_fft(
        &self,
        accel: &FftAccelerator,
        input: &Self::Input,
    ) -> Result<(Self::Output, FftAccelStats)> {
        span(SpanKind::ExecuteFft, Some(input.job), || {
            self.inner.execute_fft(accel, input.input)
        })
    }

    fn execute_cpu(
        &self,
        cpu: &mut Cpu,
        sram: &mut Sram,
        input: &Self::Input,
    ) -> Result<(Self::Output, CpuRunStats)> {
        span(SpanKind::ExecuteCpu, Some(input.job), || {
            self.inner.execute_cpu(cpu, sram, input.input)
        })
    }
}

/// Host time of the traced rounds, split by layer.
#[derive(Debug, Default, Clone)]
pub struct SpanSummary {
    /// Summed top-span time.
    pub top_ns: u64,
    /// Time inside top spans covered by kernel callbacks (interval union).
    pub covered_ns: u64,
    /// Summed durations of the kernel callbacks inside top spans.
    pub child_ns: u64,
    /// Per-kind `(count, summed ns)` of kernel spans, wherever recorded
    /// (`config_words` queries are only covered time).
    pub program: (u64, u64),
    pub execute: (u64, u64),
    pub execute_fft: (u64, u64),
    pub execute_cpu: (u64, u64),
    /// `program` spans inside a top span (builds during serving).
    pub program_in_top: u64,
    /// Window executions without a job tag or outside every top span.
    pub untagged_windows: u64,
    /// Kernel spans that started before or ended after their top span.
    pub escaped: u64,
}

impl SpanSummary {
    /// Folds one round's spans into a summary.
    pub fn of(spans: &[Span]) -> Self {
        let mut s = SpanSummary::default();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for span in spans {
            let slot = match span.kind {
                SpanKind::Top => {
                    s.top_ns += span.duration_ns();
                    continue;
                }
                SpanKind::ConfigWords => None,
                SpanKind::Program => Some(&mut s.program),
                SpanKind::Execute => Some(&mut s.execute),
                SpanKind::ExecuteFft => Some(&mut s.execute_fft),
                SpanKind::ExecuteCpu => Some(&mut s.execute_cpu),
            };
            if let Some(slot) = slot {
                slot.0 += 1;
                slot.1 += span.duration_ns();
            }
            let window = matches!(
                span.kind,
                SpanKind::Execute | SpanKind::ExecuteFft | SpanKind::ExecuteCpu
            );
            if window && (span.job.is_none() || span.parent.is_none()) {
                s.untagged_windows += 1;
            }
            if let Some(parent) = span.parent {
                s.program_in_top += u64::from(span.kind == SpanKind::Program);
                s.child_ns += span.duration_ns();
                let top = &spans[parent];
                if span.start_ns < top.start_ns || span.end_ns > top.end_ns {
                    s.escaped += 1;
                }
                // Clamp to the parent so a child can never be counted
                // outside the span it claims to belong to.
                let start = span.start_ns.max(top.start_ns);
                let end = span.end_ns.min(top.end_ns).max(start);
                children[parent].push((start, end));
            }
        }
        for mut intervals in children {
            intervals.sort_unstable();
            let mut reach = 0u64;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    s.covered_ns += end - start;
                    reach = end;
                }
            }
        }
        s
    }

    /// Adds another round's summary to this one.
    pub fn absorb(&mut self, other: &SpanSummary) {
        self.top_ns += other.top_ns;
        self.covered_ns += other.covered_ns;
        self.child_ns += other.child_ns;
        for (total, part) in [
            (&mut self.program, other.program),
            (&mut self.execute, other.execute),
            (&mut self.execute_fft, other.execute_fft),
            (&mut self.execute_cpu, other.execute_cpu),
        ] {
            total.0 += part.0;
            total.1 += part.1;
        }
        self.program_in_top += other.program_in_top;
        self.untagged_windows += other.untagged_windows;
        self.escaped += other.escaped;
    }

    /// Host time inside top spans not covered by kernel callbacks.
    pub fn self_ns(&self) -> u64 {
        self.top_ns - self.covered_ns
    }
}
