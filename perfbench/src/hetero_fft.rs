//! `hetero-fft`: an open-loop Poisson stream of FFT-256 complex jobs and
//! FIR-48 crumbs served FIFO + stealing by two arrays, the
//! fixed-function FFT engine and the Cortex-M4 host, placed by
//! `CostAware(Cycles)`.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::time::Instant;

use vwr2a_bench::{poisson_arrivals, SplitMix64};
use vwr2a_core::geometry::Geometry;
use vwr2a_fftaccel::{FftAccelStats, FftAccelerator};
use vwr2a_kernels::fft::FftKernel;
use vwr2a_kernels::fir::FirKernel;
use vwr2a_kernels::Spectrum;
use vwr2a_runtime::testing::constrained_sessions;
use vwr2a_runtime::{
    BackendKind, CostAware, CpuBackend, FftBackend, Fifo, Kernel, LaunchCtx, Objective, Offload,
    Pool, Resources, RuntimeError, ServeJob, ServeReport, Server,
};
use vwr2a_soc::cpu::{Cpu, CpuRunStats};
use vwr2a_soc::sram::Sram;

use crate::common::{fir, reconcile, serve_modelled, signal, timed_stream, Round, Timed, Workload};
use crate::trace::{self, Tagged, Traced};

/// Jobs per round, half FFT and half crumbs.  At this rate the FFT
/// windows alone outrun the engine, so the arrays take a share of them.
const JOBS: usize = 4000;
const MEAN_GAP: f64 = 1800.0;
const FFT_POINTS: usize = 256;
const CRUMB_SAMPLES: usize = 48;
const CRUMB_VARIANTS: usize = 6;
/// Run-queue depth per backend.
const DEPTH: usize = 2;

/// One palette entry: the FFT stage or a FIR crumb, wrapped so one
/// serving run can mix both shapes (the runtime is generic over one
/// kernel type per run).
enum MixKernel {
    Fft(FftKernel),
    Fir(FirKernel),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum MixWindow {
    Spectrum(Spectrum),
    Samples(Vec<i32>),
}

type MixOutput = MixWindow;

fn shape_mismatch(kernel: &MixKernel) -> RuntimeError {
    RuntimeError::invalid_input(format!(
        "window shape does not match the {} kernel",
        kernel.name()
    ))
}

impl Kernel for MixKernel {
    type Input = MixWindow;
    type Output = MixOutput;

    fn name(&self) -> &str {
        match self {
            MixKernel::Fft(k) => k.name(),
            MixKernel::Fir(k) => k.name(),
        }
    }

    fn cache_key(&self) -> String {
        match self {
            MixKernel::Fft(k) => k.cache_key(),
            MixKernel::Fir(k) => k.cache_key(),
        }
    }

    fn resources(&self) -> Resources {
        match self {
            MixKernel::Fft(k) => k.resources(),
            MixKernel::Fir(k) => k.resources(),
        }
    }

    fn program(&self, geometry: &Geometry) -> vwr2a_runtime::Result<vwr2a_core::KernelProgram> {
        match self {
            MixKernel::Fft(k) => k.program(geometry),
            MixKernel::Fir(k) => k.program(geometry),
        }
    }

    fn execute(
        &self,
        ctx: &mut LaunchCtx<'_>,
        input: &MixWindow,
    ) -> vwr2a_runtime::Result<MixOutput> {
        match (self, input) {
            (MixKernel::Fft(k), MixWindow::Spectrum(s)) => {
                k.execute(ctx, s).map(MixWindow::Spectrum)
            }
            (MixKernel::Fir(k), MixWindow::Samples(v)) => k.execute(ctx, v).map(MixWindow::Samples),
            _ => Err(shape_mismatch(self)),
        }
    }

    fn offload(&self) -> Offload {
        match self {
            MixKernel::Fft(k) => k.offload(),
            MixKernel::Fir(k) => k.offload(),
        }
    }

    fn execute_fft(
        &self,
        accel: &FftAccelerator,
        input: &MixWindow,
    ) -> vwr2a_runtime::Result<(MixOutput, FftAccelStats)> {
        match (self, input) {
            (MixKernel::Fft(k), MixWindow::Spectrum(s)) => k
                .execute_fft(accel, s)
                .map(|(out, stats)| (MixWindow::Spectrum(out), stats)),
            _ => Err(shape_mismatch(self)),
        }
    }

    fn execute_cpu(
        &self,
        cpu: &mut Cpu,
        sram: &mut Sram,
        input: &MixWindow,
    ) -> vwr2a_runtime::Result<(MixOutput, CpuRunStats)> {
        match (self, input) {
            (MixKernel::Fir(k), MixWindow::Samples(v)) => k
                .execute_cpu(cpu, sram, v)
                .map(|(out, stats)| (MixWindow::Samples(out), stats)),
            _ => Err(shape_mismatch(self)),
        }
    }
}

/// The FFT stage plus `CRUMB_VARIANTS` crumbs with distinct taps.
fn palette() -> Vec<MixKernel> {
    let mut kernels = vec![MixKernel::Fft(
        FftKernel::new(FFT_POINTS).expect("supported FFT length"),
    )];
    kernels.extend(
        (0..CRUMB_VARIANTS).map(|k| MixKernel::Fir(fir(0.06 + 0.05 * k as f64, CRUMB_SAMPLES))),
    );
    kernels
}

/// The fleet: two arrays whose configuration memories hold the FFT stage
/// plus two crumbs, the FFT engine and the host CPU.
fn server<K: Kernel>(fft: &K, crumb: &K) -> Server {
    let words = |k: &K| {
        k.program(&Geometry::paper())
            .expect("program builds")
            .config_words()
    };
    let capacity = words(fft) + 2 * words(crumb);
    let pool = Pool::with_sessions(constrained_sessions(2, capacity))
        .expect("constrained sessions share one geometry")
        .with_backend(FftBackend::new())
        .with_backend(CpuBackend::new())
        .with_placement(CostAware::with_objective(Objective::Cycles));
    Server::new(pool)
        .with_policy(Fifo)
        .with_stealing(true)
        .with_depth(DEPTH)
}

struct JobSpec {
    pick: usize,
    windows: Vec<MixWindow>,
    arrival: u64,
}

pub struct HeteroFft {
    specs: Vec<JobSpec>,
    /// Serial single-session outputs: the reference for array routes.
    serial: Vec<Vec<MixOutput>>,
    /// Fresh-engine / fresh-ISS outputs, computed (during the first
    /// round's check) the first time a job lands on that backend kind.
    offload_refs: HashMap<(usize, BackendKind), Vec<MixOutput>>,
    reference_s: f64,
}

impl HeteroFft {
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let arrivals = poisson_arrivals(&mut rng, JOBS, MEAN_GAP);
        let specs: Vec<JobSpec> = arrivals
            .into_iter()
            .map(|arrival| {
                if rng.next_below(2) == 0 {
                    let count = 1 + rng.next_below(2) as usize;
                    let windows = (0..count)
                        .map(|_| {
                            let re = signal(&mut rng, FFT_POINTS);
                            let im = signal(&mut rng, FFT_POINTS);
                            MixWindow::Spectrum(Spectrum::new(re, im))
                        })
                        .collect();
                    JobSpec {
                        pick: 0,
                        windows,
                        arrival,
                    }
                } else {
                    JobSpec {
                        pick: 1 + rng.next_below(CRUMB_VARIANTS as u64) as usize,
                        windows: vec![MixWindow::Samples(signal(&mut rng, CRUMB_SAMPLES))],
                        arrival,
                    }
                }
            })
            .collect();
        let start = Instant::now();
        let kernels = palette();
        let (serial, _) =
            Pool::run_serial_reference(specs.iter().map(|s| (&kernels[s.pick], s.windows.iter())))
                .expect("serial reference runs");
        Self {
            specs,
            serial,
            offload_refs: HashMap::new(),
            reference_s: start.elapsed().as_secs_f64(),
        }
    }

    fn serve<'a, K, W>(
        &'a self,
        server: &mut Server,
        kernels: &'a [K],
        tag: impl Fn(usize, &'a MixWindow) -> W + Copy + 'a,
    ) -> Timed<MixOutput, ServeReport>
    where
        K: Kernel<Output = MixOutput>,
        W: Borrow<K::Input>,
    {
        let jobs: Vec<_> = self
            .specs
            .iter()
            .enumerate()
            .map(|(j, s)| ServeJob {
                kernel: &kernels[s.pick],
                windows: s.windows.iter().map(move |w| tag(j, w)),
                tenant: 0,
                arrival_cycle: s.arrival,
                priority: 0,
                deadline_cycle: None,
            })
            .collect();
        timed_stream(jobs.len(), |sink| server.run_stream(jobs, sink))
    }

    /// The expected outputs of `job` on a backend of `kind`.
    fn expected(&mut self, job: usize, kind: BackendKind, kernels: &[MixKernel]) -> &[MixOutput] {
        if kind == BackendKind::Array {
            return &self.serial[job];
        }
        let spec = &self.specs[job];
        let kernel = &kernels[spec.pick];
        self.offload_refs.entry((job, kind)).or_insert_with(|| {
            spec.windows
                .iter()
                .filter_map(|w| match kind {
                    BackendKind::FftAccel => kernel
                        .execute_fft(&FftAccelerator::new(), w)
                        .map(|(out, _)| out)
                        .ok(),
                    _ => kernel
                        .execute_cpu(&mut Cpu::new(), &mut Sram::paper(), w)
                        .map(|(out, _)| out)
                        .ok(),
                })
                .collect()
        })
    }
}

/// Times one set-up (kernels and runtime objects) and drops it.
pub fn setup_s() -> f64 {
    let start = Instant::now();
    let kernels = palette();
    let server = server(&kernels[0], &kernels[1]);
    let elapsed = start.elapsed().as_secs_f64();
    drop((kernels, server));
    elapsed
}

impl Workload for HeteroFft {
    fn round(&mut self, traced: bool) -> Round {
        let kernels = palette();
        let wrapped: Vec<Traced<'_, MixKernel>> = kernels.iter().map(Traced::new).collect();
        let mut server = if traced {
            server(&wrapped[0], &wrapped[1])
        } else {
            server(&kernels[0], &kernels[1])
        };
        let timed = if traced {
            self.serve(&mut server, &wrapped, |job, input| Tagged { job, input })
        } else {
            self.serve(&mut server, &kernels, |_, input| input)
        };
        let spans = traced.then(trace::finish_round);

        let verify = Instant::now();
        let jobs = self.specs.len() as u64;
        let mut round = Round {
            host_s: timed.host_s,
            gaps_us: timed.gaps_us,
            jobs,
            ..Round::default()
        };
        match timed.result {
            Ok(report) => {
                let mut wrong = jobs - report.fleet.routes.len() as u64;
                for route in &report.fleet.routes {
                    let expected = self.expected(route.job, route.kind, &kernels);
                    wrong += u64::from(timed.outputs[route.job] != expected);
                }
                round.failed = wrong;
                round.mismatches = reconcile(server.pool(), &report.fleet, spans.as_ref());
                round.modelled = serve_modelled(server.pool(), &report, 0);
                // FFT windows the engine could not take and the arrays ran.
                let spilled: usize = report
                    .fleet
                    .routes
                    .iter()
                    .filter(|r| r.kind == BackendKind::Array && self.specs[r.job].pick == 0)
                    .map(|r| self.specs[r.job].windows.len())
                    .sum();
                round
                    .modelled
                    .layers
                    .push(("runtime.array_fft_windows", spilled as f64));
            }
            Err(err) => {
                eprintln!("hetero-fft: the run failed: {err}");
                round.failed = jobs;
            }
        }
        round.spans = spans;
        round.verify_s = verify.elapsed().as_secs_f64();
        round
    }

    fn reference_s(&self) -> f64 {
        self.reference_s
    }
}
