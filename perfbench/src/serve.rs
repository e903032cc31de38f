//! The `serve-mixed` workload: rock-serve in-process with two workers,
//! driven over loopback HTTP by this process.
//!
//! * **Reference phase** — an open-loop generator sends single-point
//!   `POST /label` requests at a fixed rate over two keep-alive
//!   connections and times each one from when it was due. Beside it an
//!   admin thread re-uploads the alternate model at a fixed low rate
//!   (`Registry::install_text`), so registry writes race label reads.
//!   Every answer must equal `ModelSnapshot::label` of the model named
//!   by its `X-Rock-Model-Fingerprint` header. The whole process runs on
//!   one core during this phase (see [`crate::affinity`]).
//! * **Batch phase** — a closed loop over two connections sends 64-line
//!   NDJSON bodies; every line must match the default model.
//! * **Rate ladder** (traced runs) — open-loop rungs of rising rate; the
//!   highest rung whose p99 stays within the latency limit with no
//!   growing backlog is the capacity.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rock_core::prelude::*;
use rock_core::telemetry::json::Json;
use rock_datasets::synthetic::MushroomModel;
use rock_serve::server::{ServeConfig, Server, ServerHandle};

use crate::report::{median, ms, secs, Latency, LatencyPasses, Stopwatch};
use crate::{affinity, Args, Ctx};

const POINTS: usize = 2_000;
const K: usize = 6;
const THETA: f64 = 0.8;
/// The alternate model: a looser threshold draws different
/// representatives, so the two models label some points differently.
const THETA_ALT: f64 = 0.6;
/// Server workers and client connections (the box has two cores).
const WORKERS: usize = 2;
const CONNS: usize = 2;
/// The fixed request rate latency is reported at: about a quarter of the
/// capacity of a quiet 2-core box, so it stays under capacity while the
/// host steals CPU time.
const REFERENCE_RPS: f64 = 1_000.0;
/// Latency and throughput are reported as medians over windows of this
/// many seconds, so a host stall that spoils one window does not move
/// the result. A reference window holds 200 requests; tails come from
/// all windows pooled.
const REFERENCE_WINDOW_S: f64 = 0.2;
/// How long before a reference-phase request is due its connection stops
/// sleeping and spins (see [`wait_until`]).
const SPIN_AHEAD: Duration = Duration::from_micros(250);
const BATCH_WINDOW_S: f64 = 0.5;
/// Admin re-uploads per second during the reference phase.
const SWAPS_PER_S: f64 = 5.0;
const BATCH_LINES: usize = 64;
/// p99 latency limit a ladder rung must meet.
const LIMIT_MS: f64 = 10.0;
/// Ladder: coarse rungs 25% apart, then fine rungs 5% apart above the
/// last coarse rung that passed.
const LADDER_START_RPS: f64 = 1_000.0;
const LADDER_COARSE: f64 = 1.25;
const LADDER_FINE: f64 = 1.05;
/// The ladder stops here even if every rung passed.
const LADDER_MAX_RPS: f64 = 50_000.0;
/// Least requests per rung, so its p99 has ten samples beyond it.
const RUNG_MIN_REQUESTS: f64 = 1_000.0;
const SETUP_REPS: usize = 5;

/// The served models and everything needed to check their answers.
struct Models {
    main: ModelSnapshot,
    alt: ModelSnapshot,
    main_text: String,
    alt_text: String,
    fingerprints: [String; 2],
    /// `expected[m][row]`: the `/label` body model `m` must answer.
    expected: [Vec<String>; 2],
    truth: Vec<usize>,
    /// One full single-point request per row.
    requests: Vec<Vec<u8>>,
    /// NDJSON batch requests covering the rows in order, cyclically.
    batches: Vec<(usize, Vec<u8>)>,
    data: TransactionSet,
}

fn fit_snapshot(data: &TransactionSet, theta: f64, seed: u64) -> ModelSnapshot {
    let model = RockBuilder::new(K, theta)
        .threads(WORKERS)
        .seed(seed)
        .build()
        .fit(data)
        .expect("fit");
    ModelSnapshot::from_model(
        data,
        &model,
        theta,
        MarketBasket.f(theta),
        SimilarityKind::Jaccard,
        OutlierPolicy::Mark,
        &LabelingConfig::default(),
        seed,
    )
    .expect("snapshot")
}

fn render_label(label: Option<usize>) -> String {
    match label {
        Some(c) => format!("{{\"cluster\":{c}}}"),
        None => "{\"cluster\":null}".to_owned(),
    }
}

fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn build_models(seed: u64) -> Models {
    let (table, _, truth) = MushroomModel::scaled(POINTS, K).seed(seed).generate();
    let data = table.to_transactions();
    let main = fit_snapshot(&data, THETA, seed);
    let alt = fit_snapshot(&data, THETA_ALT, seed);
    let bodies: Vec<String> = data
        .iter()
        .map(|t| {
            let items: Vec<String> = t.items().iter().map(u32::to_string).collect();
            format!("{{\"items\":[{}]}}", items.join(","))
        })
        .collect();
    let expected = [&main, &alt].map(|m| data.iter().map(|t| render_label(m.label(t))).collect());
    let requests = bodies.iter().map(|b| http_post("/label", b)).collect();
    let batches = (0..POINTS.div_ceil(BATCH_LINES))
        .map(|b| {
            let first = b * BATCH_LINES;
            let mut body = String::new();
            for i in 0..BATCH_LINES {
                body.push_str(&bodies[(first + i) % POINTS]);
                body.push('\n');
            }
            (first, http_post("/label", &body))
        })
        .collect();
    Models {
        fingerprints: [main.fingerprint_hex(), alt.fingerprint_hex()],
        main_text: main.render(),
        alt_text: alt.render(),
        main,
        alt,
        expected,
        truth,
        requests,
        batches,
        data,
    }
}

fn start_server(models: &Models) -> ServerHandle {
    let config = ServeConfig {
        threads: WORKERS,
        accept_shards: 1,
        ..ServeConfig::default()
    };
    Server::start(models.main.clone(), config).expect("server start")
}

/// A parsed HTTP response.
struct Reply {
    status: u16,
    fingerprint: String,
    body: String,
}

/// One keep-alive loopback connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(request)
    }

    /// Spins (yielding the core) until the reply's first bytes have
    /// arrived, so the generator's own wake-up is not part of the latency
    /// it measures.
    fn await_reply(&mut self) -> std::io::Result<()> {
        if !self.reader.buffer().is_empty() {
            return Ok(());
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        self.writer.set_nonblocking(true)?;
        let mut byte = [0u8; 1];
        let ready = loop {
            match self.writer.peek(&mut byte) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        break Err(std::io::ErrorKind::TimedOut.into());
                    }
                    std::thread::yield_now();
                }
                other => break other.map(drop),
            }
        };
        self.writer.set_nonblocking(false)?;
        ready
    }

    fn receive(&mut self) -> std::io::Result<Reply> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut length = 0usize;
        let mut fingerprint = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("x-rock-model-fingerprint") {
                    fingerprint = value.to_owned();
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            fingerprint,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// The model index a reply claims, if it is one of ours.
fn model_of(models: &Models, reply: &Reply) -> Option<usize> {
    models
        .fingerprints
        .iter()
        .position(|f| *f == reply.fingerprint)
}

/// One open-loop request's record.
struct Sample {
    /// Seconds from the phase start to the due time.
    due_s: f64,
    model: usize,
    /// From due time to the end of the response.
    latency_ms: f64,
    /// From due time to the send.
    late_ms: f64,
    /// Traced runs only: `ModelSnapshot::label` on the same row, timed
    /// in-process right after the reply (0 untraced).
    kernel_ms: f64,
}

#[derive(Default)]
struct OpenLoop {
    samples: Vec<Sample>,
    failed: u64,
    attempted: u64,
    /// Lateness of the last request each connection sent.
    final_late_ms: f64,
}

impl OpenLoop {
    fn latency(&self) -> Latency {
        Latency::new(
            &self
                .samples
                .iter()
                .map(|s| s.latency_ms)
                .collect::<Vec<_>>(),
        )
    }

    /// `value` of each sample, grouped into windows by due time.
    fn windows(&self, value: impl Fn(&Sample) -> f64) -> LatencyPasses {
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for s in &self.samples {
            let w = (s.due_s / REFERENCE_WINDOW_S) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(value(s));
        }
        let mut passes = LatencyPasses::default();
        for w in windows.iter().filter(|w| !w.is_empty()) {
            passes.add(w);
        }
        passes
    }
}

/// Sleeps until `SPIN_AHEAD` before `due`, then spins (yielding the
/// core) to it: a thread sleeping to the due time wakes 50-100 us late
/// on a virtual machine, and that lateness would count in every
/// request's latency.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_AHEAD {
        std::thread::sleep(due - now - SPIN_AHEAD);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Sends single-point requests at `rate` for `duration`, split evenly
/// and interleaved over `CONNS` connections, each request timed from its
/// due time. A request that fails, is shed or answers a wrong label
/// counts as failed and records no latency. `punctual` spins to each due
/// time and for each reply (the reference phase, where the connections
/// idle most of the time); otherwise the generator sleeps and blocks, so
/// that at ladder rates it leaves the cores to the server.
/// `traced` adds a span around an in-process kernel call per request.
fn open_loop(
    addr: SocketAddr,
    models: &Models,
    rate: f64,
    duration: Duration,
    punctual: bool,
    traced: bool,
) -> OpenLoop {
    let per_conn = ((rate * secs(duration)) / CONNS as f64).ceil().max(1.0) as usize;
    let period = Duration::from_secs_f64(CONNS as f64 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<OpenLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = OpenLoop::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        out.attempted = per_conn as u64;
                        out.failed = per_conn as u64;
                        return out;
                    };
                    let offset = period.mul_f64(c as f64 / CONNS as f64);
                    for i in 0..per_conn {
                        let row = (i * CONNS + c) % POINTS;
                        let due = start + offset + period.mul_f64(i as f64);
                        if punctual {
                            wait_until(due);
                        } else if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        out.attempted += 1;
                        let reply = client.send(&models.requests[row]).and_then(|()| {
                            if punctual {
                                client.await_reply()?;
                            }
                            client.receive()
                        });
                        let done = Instant::now();
                        let ok = reply.ok().and_then(|r| {
                            let m = model_of(models, &r)?;
                            (r.status == 200 && r.body.trim() == models.expected[m][row])
                                .then_some(m)
                        });
                        out.final_late_ms = ms(sent - due);
                        match ok {
                            Some(model) => out.samples.push(Sample {
                                due_s: secs(due - start),
                                model,
                                latency_ms: ms(done - due),
                                late_ms: ms(sent - due),
                                kernel_ms: if traced {
                                    let snapshot = [&models.main, &models.alt][model];
                                    let t = Instant::now();
                                    std::hint::black_box(
                                        snapshot.label(&models.data.transactions()[row]),
                                    );
                                    ms(t.elapsed())
                                } else {
                                    0.0
                                },
                            }),
                            None => out.failed += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread"))
            .collect()
    });
    let mut all = OpenLoop::default();
    for r in results {
        all.samples.extend(r.samples);
        all.failed += r.failed;
        all.attempted += r.attempted;
        all.final_late_ms = all.final_late_ms.max(r.final_late_ms);
    }
    all
}

/// The reference phase: open-loop load at `REFERENCE_RPS` while an admin
/// thread alternates the default model between the two fits, with the
/// whole process on one core (see [`affinity`]). Returns the load and
/// the install times (ms); leaves the main model active.
fn reference_phase(
    handle: &ServerHandle,
    models: &Models,
    duration: Duration,
    traced: bool,
    ctx: &mut Ctx,
) -> (OpenLoop, Vec<f64>) {
    match affinity::pin_process() {
        Some(cpu) => println!("reference phase: process pinned to cpu {cpu}"),
        None => println!("reference phase: process not pinned"),
    }
    let stop = AtomicBool::new(false);
    let registry = handle.registry();
    let (load, swaps) = std::thread::scope(|scope| {
        let admin = scope.spawn(|| {
            let mut times = Vec::new();
            let mut failed = 0u64;
            let mut upload = |text: &str| {
                let t = Instant::now();
                let ok = registry.install_text("default", text).is_ok();
                times.push(ms(t.elapsed()));
                failed += u64::from(!ok);
            };
            let mut upload_alt = true;
            let pause = Duration::from_secs_f64(1.0 / SWAPS_PER_S);
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(pause);
                upload(if upload_alt {
                    &models.alt_text
                } else {
                    &models.main_text
                });
                upload_alt = !upload_alt;
            }
            if !upload_alt {
                // The last upload was the alternate: restore the main model.
                upload(&models.main_text);
            }
            (times, failed)
        });
        let load = open_loop(handle.addr(), models, REFERENCE_RPS, duration, true, traced);
        stop.store(true, Ordering::Release);
        (load, admin.join().expect("admin thread"))
    });
    affinity::unpin_process();
    let (times, swap_failed) = swaps;
    ctx.report
        .ops(times.len() as u64, swap_failed, "admin re-uploads accepted");
    (load, times)
}

/// Closed-loop NDJSON batches over `CONNS` connections for `duration`;
/// returns the median over `BATCH_WINDOW_S` windows of points answered
/// per second (scaled to the CPU time the host granted, see
/// [`Stopwatch`]), and the label answered for each row.
fn batch_phase(
    addr: SocketAddr,
    models: &Models,
    duration: Duration,
    ctx: &mut Ctx,
) -> (f64, Vec<Option<u32>>) {
    let start = Instant::now();
    let clock = Stopwatch::start();
    type Conn = (Vec<f64>, u64, u64, Vec<(usize, Option<u32>)>);
    let results: Vec<Conn> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let (mut done, mut requests, mut failed) = (Vec::new(), 0u64, 0u64);
                    let mut answers = Vec::new();
                    let Ok(mut client) = Client::connect(addr) else {
                        return (done, 1, 1, answers);
                    };
                    let mut b = c;
                    while start.elapsed() < duration {
                        let (first, request) = &models.batches[b % models.batches.len()];
                        b += CONNS;
                        requests += 1;
                        let reply = client.send(request).and_then(|()| client.receive());
                        let ok = reply.ok().filter(|r| r.status == 200).is_some_and(|r| {
                            let lines: Vec<&str> = r.body.lines().collect();
                            let good = model_of(models, &r) == Some(0)
                                && lines.len() == BATCH_LINES
                                && lines.iter().enumerate().all(|(i, l)| {
                                    l.trim() == models.expected[0][(first + i) % POINTS]
                                });
                            if good && answers.len() < POINTS {
                                for (i, l) in lines.iter().enumerate() {
                                    answers.push(((first + i) % POINTS, parse_cluster(l)));
                                }
                            }
                            good
                        });
                        if ok {
                            done.push(secs(start.elapsed()));
                        } else {
                            failed += 1;
                        }
                    }
                    (done, requests, failed, answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch client thread"))
            .collect()
    });
    let steal = clock.stop().steal;
    let windows = ((secs(duration) / BATCH_WINDOW_S) as usize).max(1);
    let mut per_window = vec![0.0; windows];
    let mut labels: Vec<Option<Option<u32>>> = vec![None; POINTS];
    let (mut requests, mut failed) = (0, 0);
    for (done, r, f, answers) in results {
        for t in done {
            if let Some(w) = per_window.get_mut((t / BATCH_WINDOW_S) as usize) {
                *w += BATCH_LINES as f64 / BATCH_WINDOW_S;
            }
        }
        requests += r;
        failed += f;
        for (row, label) in answers {
            labels[row].get_or_insert(label);
        }
    }
    ctx.report.ops(
        requests,
        failed,
        "NDJSON batches labeled by the default model",
    );
    let answered = labels.iter().filter(|l| l.is_some()).count();
    ctx.report
        .op(answered == POINTS, "batch phase answered every row");
    println!(
        "batch phase: median window {:.0} points/s, host stole {:.1}%",
        median(&per_window),
        100.0 * steal
    );
    (
        median(&per_window) / (1.0 - steal),
        labels.into_iter().map(Option::flatten).collect(),
    )
}

fn parse_cluster(line: &str) -> Option<u32> {
    line.trim()
        .strip_prefix("{\"cluster\":")?
        .strip_suffix('}')?
        .parse()
        .ok()
}

/// Runs one ladder rung; passes when nothing failed, p99 is within the
/// limit and the generator was not falling behind at the end.
fn rung(handle: &ServerHandle, models: &Models, rate: f64) -> bool {
    let duration = Duration::from_secs_f64((RUNG_MIN_REQUESTS / rate).max(0.3));
    let load = open_loop(handle.addr(), models, rate, duration, false, false);
    let lat = load.latency();
    let pass =
        load.failed == 0 && lat.percentile(0.99) <= LIMIT_MS && load.final_late_ms <= LIMIT_MS;
    println!(
        "  rung {rate:>8.0} req/s: {} -> {}",
        lat.describe("ms"),
        if pass { "pass" } else { "fail" }
    );
    pass
}

/// The highest ladder rate that passes: coarse rungs until one fails
/// (each failure retried once), then fine rungs above the last pass.
fn max_rps(handle: &ServerHandle, models: &Models) -> f64 {
    let mut best = 0.0;
    let mut rate = LADDER_START_RPS;
    while rate <= LADDER_MAX_RPS && (rung(handle, models, rate) || rung(handle, models, rate)) {
        best = rate;
        rate *= LADDER_COARSE;
    }
    if best > 0.0 {
        let mut rate = best * LADDER_FINE;
        while rate < best * LADDER_COARSE
            && (rung(handle, models, rate) || rung(handle, models, rate))
        {
            best = rate;
            rate *= LADDER_FINE;
        }
    }
    best
}

fn batch_counts(handle: &ServerHandle) -> (u64, u64) {
    let doc = Json::parse(&handle.metrics_json()).expect("metrics JSON");
    let model = doc.get("models").and_then(|m| m.get("default"));
    let get = |k: &str| {
        model
            .and_then(|m| m.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    (get("batches"), get("batch_points"))
}

pub fn run(args: &Args, ctx: &mut Ctx) {
    let seed = args.seed;
    let mut setup = Vec::new();
    let mut state: Option<(Models, ServerHandle)> = None;
    let whole = Stopwatch::start();
    for _ in 0..SETUP_REPS {
        if let Some((_, handle)) = state.take() {
            handle.shutdown();
        }
        let t = Instant::now();
        let models = build_models(seed);
        let handle = start_server(&models);
        setup.push(secs(t.elapsed()));
        state = Some((models, handle));
    }
    let setup_steal = whole.stop().steal;
    let (models, handle) = state.expect("at least one setup");
    let probe = models
        .data
        .iter()
        .filter(|t| models.main.label(t) != models.alt.label(t))
        .count();
    println!(
        "serve-mixed: {POINTS} points, models {} / {} clusters, {probe} points labeled differently, \
         {WORKERS} workers, {CONNS} connections",
        models.main.num_clusters(),
        models.alt.num_clusters()
    );
    println!(
        "setup: {SETUP_REPS} data generations, model fits and server starts, median {:.4} s, host stole {:.1}%",
        median(&setup),
        100.0 * setup_steal
    );
    ctx.report
        .metric("setup_s", median(&setup) * (1.0 - setup_steal), "s");

    let total = Duration::from_secs_f64(args.seconds);
    let (ref_share, batch_share) = if args.trace { (0.25, 0.15) } else { (0.6, 0.4) };
    // Whole windows only: every reference window holds its 200 requests.
    let windows = (secs(total) * ref_share / REFERENCE_WINDOW_S)
        .floor()
        .max(1.0);
    let ref_duration = Duration::from_secs_f64(windows * REFERENCE_WINDOW_S);
    let (load, swaps) = reference_phase(&handle, &models, ref_duration, false, ctx);
    ctx.report.ops(
        load.attempted,
        load.failed,
        "single-point labels match the fingerprinted model",
    );
    let latency = load.windows(|s| s.latency_ms);
    let late = Latency::new(&load.samples.iter().map(|s| s.late_ms).collect::<Vec<_>>());
    let swap = Latency::new(&swaps);
    println!(
        "reference phase at {} req/s: latency {}",
        REFERENCE_RPS,
        latency.describe("ms")
    );
    println!("  generator lateness {}", late.describe("ms"));
    let service: Vec<f64> = load
        .samples
        .iter()
        .map(|s| s.latency_ms - s.late_ms)
        .collect();
    println!("  send to reply {}", Latency::new(&service).describe("ms"));
    println!("  admin re-uploads {}", swap.describe("ms"));
    let served_alt = load.samples.iter().filter(|s| s.model == 1).count();
    println!(
        "  {served_alt} of {} answers came from the alternate model",
        load.samples.len()
    );

    let (pps, labels) = batch_phase(handle.addr(), &models, total.mul_f64(batch_share), ctx);
    let served_purity = rock_core::metrics::purity(&labels, &models.truth).expect("aligned labels");
    println!("batch phase: {pps:.0} points/s granted, purity of served labels {served_purity:.4}");

    let r = &mut ctx.report;
    r.metric("points_per_s", pps, "1/s");
    r.metric("latency_p50_ms", latency.p50(), "ms");
    r.metric("latency.p99_ms", latency.percentile(0.99), "ms");
    r.metric("purity", served_purity, "ratio");

    if args.trace {
        let (traced, _) = reference_phase(&handle, &models, ref_duration, true, ctx);
        ctx.report.ops(
            traced.attempted,
            traced.failed,
            "traced single-point labels match",
        );
        let traced_latency = traced.windows(|s| s.latency_ms);
        println!(
            "traced reference phase: latency {}",
            traced_latency.describe("ms")
        );
        let overhead = Latency::new(
            &traced
                .samples
                .iter()
                .map(|s| s.latency_ms - s.kernel_ms)
                .collect::<Vec<_>>(),
        );
        let kernel_sum: f64 = traced.samples.iter().map(|s| s.kernel_ms).sum();
        let latency_sum: f64 = traced.samples.iter().map(|s| s.latency_ms).sum();
        println!(
            "  serving overhead (latency - kernel) {}",
            overhead.describe("ms")
        );
        println!(
            "tracing overhead: traced p50 {:.4} ms - untraced p50 {:.4} ms = {:+.4} ms",
            traced_latency.p50(),
            latency.p50(),
            traced_latency.p50() - latency.p50()
        );
        println!("rate ladder (p99 limit {LIMIT_MS} ms):");
        let capacity = max_rps(&handle, &models);
        println!("capacity: {capacity:.0} req/s");
        let (batches, batch_points) = batch_counts(&handle);
        let c = handle.counters();
        let r = &mut ctx.report;
        r.metric("serve.overhead_p50_ms", overhead.p50, "ms");
        r.metric("serve.kernel_share", kernel_sum / latency_sum, "ratio");
        r.metric("serve.max_rps", capacity, "1/s");
        r.metric(
            "batch.mean_size",
            batch_points as f64 / batches.max(1) as f64,
            "count",
        );
        r.metric("registry.swap_p50_ms", swap.p50, "ms");
        r.metric("server.shed", c.shed as f64, "count");
        r.metric("loadgen.late_p99_ms", late.percentile(0.99), "ms");
        r.metric(
            "trace.overhead_ms",
            traced_latency.p50() - latency.p50(),
            "ms",
        );
    }
    handle.shutdown();
}
