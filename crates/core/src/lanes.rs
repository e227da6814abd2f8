//! The lane executor: region front ends planned by out-of-process
//! workers, one framed [`WorkerRequest`]/[`WorkerResponse`] round trip per
//! job. [`LaneExecutor`] owns the lane policy once; what a lane connects
//! to is a [`Connect`] impl, and two exist:
//!
//! - [`Spawn`] — a `pdw worker` child process per lane, framed over its
//!   stdin/stdout ([`SubprocessExecutor`]);
//! - [`Dial`] — one `pdw worker --listen` peer per lane, framed over a
//!   socket with connect/read/write deadlines ([`SocketExecutor`]).
//!
//! Both speak the same protocol to the same worker loop
//! ([`run_worker`](crate::run_worker)); only the byte stream differs.

use std::panic::AssertUnwindSafe;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

use pdw_biochip::ScratchPool;
use pdw_sched::Schedule;

use crate::codec::{self, FrameType};
use crate::groups::WashGroup;
use crate::par::{panic_message, resolve_threads};
use crate::partition::{region_front_end, RegionExecutor, RegionJob};
use crate::transport::{self, NetAddr, NetStream};
use crate::worker::{RegionRequest, WorkerRequest, WorkerResponse};

/// A typed record of something a lane executor had to do — where
/// planning happened changed, what was planned did not.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecutorEvent {
    /// A lane's worker failed mid-job (failed to open, died, closed its
    /// stream, or returned a corrupt frame); the job was replanned
    /// in-process.
    WorkerFailed {
        /// The executor lane whose worker failed.
        worker: usize,
        /// The job index (input order) that hit the failure.
        job: usize,
        /// What the transport observed.
        detail: String,
    },
    /// A lane reopened its worker connection after a failure.
    WorkerRespawned {
        /// The executor lane that reopened.
        worker: usize,
    },
    /// A lane burned its whole per-run respawn budget and stopped
    /// reopening; its remaining jobs degrade to in-process planning.
    RespawnBudgetExhausted {
        /// The executor lane that gave up on its worker.
        worker: usize,
        /// The respawn budget that was exhausted.
        budget: usize,
    },
}

/// Bounds on reopening a lane's worker for one executor run. After a
/// lane's worker fails, the lane waits `base_backoff · 2^(k−1)` before its
/// k-th consecutive reopen attempt (capped at `max_backoff`), and stops
/// reopening entirely once it has burned `budget` respawns this run — a
/// persistently dying worker (`PDW_WORKER_CHAOS=die:1`) degrades the lane
/// to in-process planning instead of hot-looping spawn/die forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespawnPolicy {
    /// Respawns allowed per lane per run (the initial open is free).
    pub budget: usize,
    /// Backoff before the first respawn; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Ceiling on the exponential backoff.
    pub max_backoff: Duration,
}

impl Default for RespawnPolicy {
    fn default() -> Self {
        RespawnPolicy {
            budget: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RespawnPolicy {
    /// The delay before a respawn attempt following `consecutive_failures`
    /// back-to-back failures (≥ 1).
    pub fn backoff(&self, consecutive_failures: u32) -> Duration {
        let exp = consecutive_failures.saturating_sub(1).min(16);
        self.base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff)
    }
}

/// How a lane reaches its worker: open a connection, then do framed round
/// trips over it. Every failure is a transport failure message; the lane
/// loop turns it into an event and an in-process fallback.
pub trait Connect: Sync {
    /// The executor name reported by [`RegionExecutor::name`].
    const NAME: &'static str;
    /// One live worker connection, owned by one lane for one run.
    type Conn;
    /// Opens lane `lane`'s connection.
    fn open(&self, lane: usize) -> Result<Self::Conn, String>;
    /// One framed request/response round trip.
    fn call(&self, conn: &mut Self::Conn, req: &WorkerRequest) -> Result<WorkerResponse, String>;
}

/// Spawns a `pdw worker` child per lane and frames over its stdin/stdout.
#[derive(Debug)]
pub struct Spawn {
    cmd: Vec<String>,
}

/// One live worker child process with framed stdin/stdout; killed and
/// reaped on drop.
pub struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Connect for Spawn {
    const NAME: &'static str = "subprocess";
    type Conn = WorkerProc;

    fn open(&self, _lane: usize) -> Result<WorkerProc, String> {
        let mut child = Command::new(&self.cmd[0])
            .args(&self.cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.cmd[0]))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        Ok(WorkerProc {
            child,
            stdin,
            stdout,
        })
    }

    fn call(&self, proc: &mut WorkerProc, req: &WorkerRequest) -> Result<WorkerResponse, String> {
        let frame = codec::encode_frame(FrameType::WorkerRequest, req);
        codec::write_frame(&mut proc.stdin, &frame).map_err(|e| e.to_string())?;
        let frame = codec::read_frame(&mut proc.stdout)
            .map_err(|e| e.to_string())?
            .ok_or("worker closed its stdout")?;
        codec::decode_frame(FrameType::WorkerResponse, &frame).map_err(|e| e.to_string())
    }
}

/// Dials one `pdw worker --listen` peer per lane and frames over the
/// socket under fixed deadlines.
#[derive(Debug)]
pub struct Dial {
    addrs: Vec<NetAddr>,
}

impl Dial {
    /// Deadline for dialing a peer.
    const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
    /// Deadline for reading one response frame.
    const READ_TIMEOUT: Duration = Duration::from_secs(60);
    /// Deadline for writing one request frame.
    const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
}

impl Connect for Dial {
    const NAME: &'static str = "socket";
    type Conn = NetStream;

    fn open(&self, lane: usize) -> Result<NetStream, String> {
        self.addrs[lane]
            .connect(Self::CONNECT_TIMEOUT)
            .map_err(|e| e.to_string())
    }

    fn call(&self, stream: &mut NetStream, req: &WorkerRequest) -> Result<WorkerResponse, String> {
        let frame = codec::encode_frame(FrameType::WorkerRequest, req);
        transport::send_frame(stream, &frame, Self::WRITE_TIMEOUT).map_err(|e| e.to_string())?;
        let frame = transport::recv_frame(stream, codec::DEFAULT_MAX_FRAME_LEN, Self::READ_TIMEOUT)
            .map_err(|e| e.to_string())?
            .ok_or("transport i/o: worker closed the connection")?;
        transport::decode_net(FrameType::WorkerResponse, &frame).map_err(|e| e.to_string())
    }
}

/// One job's outcome: its groups, or a front-end refusal.
type JobResult = Result<Vec<WashGroup>, String>;

/// What one run recorded. Every job not answered remotely fell back
/// in-process, and every exhausted lane logged one event.
#[derive(Debug, Default)]
struct RunLog {
    events: Vec<ExecutorEvent>,
    jobs: usize,
    remote_jobs: usize,
}

/// Plans region jobs on out-of-process workers reached through `C`.
///
/// Jobs are dealt round-robin to lanes by input index, and each lane holds
/// at most one live connection for the duration of one
/// [`run`](RegionExecutor::run). A lane whose connection fails records
/// [`ExecutorEvent::WorkerFailed`], replans the job in-process (the same
/// pure front end — the plan is unchanged), and reopens for its next job
/// under the [`RespawnPolicy`]: the initial open is free, every later one
/// waits out an exponential backoff and draws on a per-run budget, and a
/// lane that burns the budget degrades to in-process planning
/// ([`ExecutorEvent::RespawnBudgetExhausted`]). Results are bit-identical
/// to [`InProcessExecutor`](crate::InProcessExecutor) under any
/// combination of failures; events and counters describe the most recent
/// run only.
pub struct LaneExecutor<C: Connect> {
    connect: C,
    lanes: usize,
    policy: RespawnPolicy,
    last_run: Mutex<RunLog>,
}

/// Region front ends in `pdw worker` child processes.
pub type SubprocessExecutor = LaneExecutor<Spawn>;

/// Region front ends on remote `pdw worker --listen` peers.
pub type SocketExecutor = LaneExecutor<Dial>;

impl LaneExecutor<Spawn> {
    /// An executor launching `workers` children (0 = all cores) with the
    /// given argv, e.g. `["/path/to/pdw", "worker"]`, under the default
    /// [`RespawnPolicy`].
    ///
    /// # Panics
    /// Panics if `cmd` is empty.
    pub fn new(cmd: Vec<String>, workers: usize) -> Self {
        assert!(!cmd.is_empty(), "subprocess executor needs an argv");
        Self::with_connector(Spawn { cmd }, workers)
    }
}

impl LaneExecutor<Dial> {
    /// An executor with one lane per peer address.
    ///
    /// # Panics
    /// Panics if `addrs` is empty.
    pub fn new(addrs: Vec<NetAddr>) -> Self {
        assert!(!addrs.is_empty(), "socket executor needs at least one peer");
        let lanes = addrs.len();
        Self::with_connector(Dial { addrs }, lanes)
    }
}

impl<C: Connect> LaneExecutor<C> {
    fn with_connector(connect: C, lanes: usize) -> Self {
        LaneExecutor {
            connect,
            lanes,
            policy: RespawnPolicy::default(),
            last_run: Mutex::new(RunLog::default()),
        }
    }

    /// Replaces the respawn policy (budget and backoff curve).
    pub fn with_respawn_policy(mut self, policy: RespawnPolicy) -> Self {
        self.policy = policy;
        self
    }

    fn last_run(&self) -> std::sync::MutexGuard<'_, RunLog> {
        self.last_run.lock().expect("executor run log poisoned")
    }

    /// One lane's share of the jobs (`lane`, `lane + stride`, …), each
    /// answered remotely or replanned in-process, with the lane's log.
    fn run_lane(
        &self,
        lane: usize,
        stride: usize,
        jobs: &[RegionJob<'_>],
        schedule: &Schedule,
        candidates: usize,
        merging: bool,
    ) -> (Vec<(usize, JobResult)>, RunLog) {
        let pool = ScratchPool::new();
        let mut log = RunLog::default();
        let mut conn: Option<C::Conn> = None;
        let mut failed_before = false;
        let mut respawns_used = 0usize;
        let mut consecutive = 0u32;
        let mut exhausted = false;
        let mut out = Vec::new();
        for i in (lane..jobs.len()).step_by(stride) {
            let job = &jobs[i];
            if conn.is_none() && failed_before && !exhausted {
                // A reopen after a failure draws on the lane's budget and
                // waits out the backoff; a burned-out lane stops opening
                // for good.
                if respawns_used >= self.policy.budget {
                    exhausted = true;
                    log.events.push(ExecutorEvent::RespawnBudgetExhausted {
                        worker: lane,
                        budget: self.policy.budget,
                    });
                } else {
                    std::thread::sleep(self.policy.backoff(consecutive));
                    respawns_used += 1;
                }
            }
            // A failed open or call drops the connection (killing a
            // child), so the lane's next job reopens.
            let answer = (!exhausted).then(|| {
                let mut c = match conn.take() {
                    Some(c) => c,
                    None => {
                        let c = self.connect.open(lane)?;
                        if failed_before {
                            log.events
                                .push(ExecutorEvent::WorkerRespawned { worker: lane });
                        }
                        c
                    }
                };
                let req = WorkerRequest::Region(Box::new(RegionRequest {
                    chip: job.chip.clone(),
                    schedule: schedule.clone(),
                    requirements: job.requirements.to_vec(),
                    candidates,
                    merging,
                }));
                let answer = self.connect.call(&mut c, &req)?;
                conn = Some(c);
                Ok(answer)
            });
            let result = match answer {
                Some(Ok(answer)) => {
                    log.remote_jobs += 1;
                    consecutive = 0;
                    match answer {
                        WorkerResponse::Groups(groups) => Ok(groups),
                        // The worker's front end panicked — the same
                        // refusal an in-process panic would be.
                        WorkerResponse::Error(msg) => Err(msg),
                    }
                }
                failure => {
                    if let Some(Err(detail)) = failure {
                        failed_before = true;
                        consecutive += 1;
                        log.events.push(ExecutorEvent::WorkerFailed {
                            worker: lane,
                            job: i,
                            detail,
                        });
                    }
                    fallback_front_end(job, schedule, candidates, merging, &pool)
                }
            };
            out.push((i, result));
        }
        (out, log)
    }
}

impl<C: Connect> RegionExecutor for LaneExecutor<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn run(
        &self,
        jobs: &[RegionJob<'_>],
        schedule: &Schedule,
        candidates: usize,
        merging: bool,
        _threads: usize,
    ) -> Vec<JobResult> {
        *self.last_run() = RunLog::default();
        let mut log = RunLog {
            jobs: jobs.len(),
            ..RunLog::default()
        };
        let mut slots: Vec<Option<JobResult>> = jobs.iter().map(|_| None).collect();
        let lanes = resolve_threads(self.lanes).min(jobs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    scope.spawn(move || {
                        self.run_lane(lane, lanes, jobs, schedule, candidates, merging)
                    })
                })
                .collect();
            for handle in handles {
                let (out, lane_log) = handle.join().expect("executor lane panicked");
                for (i, result) in out {
                    slots[i] = Some(result);
                }
                log.events.extend(lane_log.events);
                log.remote_jobs += lane_log.remote_jobs;
            }
        });
        *self.last_run() = log;
        slots
            .into_iter()
            .map(|s| s.expect("every job slot filled"))
            .collect()
    }

    fn events(&self) -> Vec<ExecutorEvent> {
        self.last_run().events.clone()
    }

    fn subprocess_counters(&self) -> (usize, usize) {
        let log = self.last_run();
        (log.remote_jobs, log.jobs - log.remote_jobs)
    }

    fn exhausted_lanes(&self) -> usize {
        self.last_run()
            .events
            .iter()
            .filter(|e| matches!(e, ExecutorEvent::RespawnBudgetExhausted { .. }))
            .count()
    }
}

/// In-process replanning of one job after a transport failure: the same
/// pure front end the worker would have run, with the same panic-refusal
/// semantics as [`InProcessExecutor`](crate::InProcessExecutor).
fn fallback_front_end(
    job: &RegionJob<'_>,
    schedule: &Schedule,
    candidates: usize,
    merging: bool,
    pool: &ScratchPool,
) -> JobResult {
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        region_front_end(
            job.chip,
            schedule,
            job.requirements,
            candidates,
            merging,
            pool,
        )
    }))
    .map_err(panic_message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;
    use std::collections::VecDeque;

    /// A connector whose opens and calls succeed or fail on a script
    /// (`true` = succeed; a spent script succeeds), counting its opens.
    #[derive(Default)]
    struct Scripted {
        opens: Mutex<VecDeque<bool>>,
        calls: Mutex<VecDeque<bool>>,
        opened: Mutex<usize>,
    }

    fn next(script: &Mutex<VecDeque<bool>>) -> bool {
        script.lock().unwrap().pop_front().unwrap_or(true)
    }

    impl Connect for Scripted {
        const NAME: &'static str = "scripted";
        type Conn = ();

        fn open(&self, _lane: usize) -> Result<(), String> {
            *self.opened.lock().unwrap() += 1;
            next(&self.opens)
                .then_some(())
                .ok_or_else(|| "open refused".to_string())
        }

        fn call(&self, _: &mut (), _: &WorkerRequest) -> Result<WorkerResponse, String> {
            next(&self.calls)
                .then(|| WorkerResponse::Groups(Vec::new()))
                .ok_or_else(|| "frame torn".to_string())
        }
    }

    /// One lane, a respawn budget of 2 and no backoff.
    fn executor() -> LaneExecutor<Scripted> {
        LaneExecutor::with_connector(Scripted::default(), 1).with_respawn_policy(RespawnPolicy {
            budget: 2,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        })
    }

    fn script(exec: &LaneExecutor<Scripted>, opens: &[bool], calls: &[bool]) {
        *exec.connect.opens.lock().unwrap() = opens.iter().copied().collect();
        *exec.connect.calls.lock().unwrap() = calls.iter().copied().collect();
        *exec.connect.opened.lock().unwrap() = 0;
    }

    fn failed(job: usize, detail: &str) -> ExecutorEvent {
        ExecutorEvent::WorkerFailed {
            worker: 0,
            job,
            detail: detail.to_string(),
        }
    }

    #[test]
    fn initial_open_is_free_then_respawns_draw_on_the_budget_until_exhausted() {
        let s = synthesize(&benchmarks::demo()).unwrap();
        let jobs: Vec<RegionJob<'_>> = (0..6)
            .map(|_| RegionJob {
                chip: &s.chip,
                requirements: &[],
            })
            .collect();
        let exec = executor();
        // Job 0 answers; job 1's call tears; job 2's reopen (respawn 1)
        // is refused; job 3's reopen (respawn 2) answers; job 4's call
        // tears; job 5 finds the budget spent.
        script(&exec, &[true, false, true], &[true, false, true, false]);
        let out = exec.run(&jobs, &s.schedule, 3, true, 1);
        assert_eq!(out.len(), jobs.len());
        assert!(out.iter().all(|r| r.as_ref().is_ok_and(Vec::is_empty)));
        assert_eq!(
            *exec.connect.opened.lock().unwrap(),
            3,
            "the free initial open plus `budget` respawns"
        );
        assert_eq!(
            exec.events(),
            vec![
                failed(1, "frame torn"),
                failed(2, "open refused"),
                ExecutorEvent::WorkerRespawned { worker: 0 },
                failed(4, "frame torn"),
                ExecutorEvent::RespawnBudgetExhausted {
                    worker: 0,
                    budget: 2
                },
            ]
        );
        let (remote, fallbacks) = exec.subprocess_counters();
        assert_eq!(remote, 2);
        assert_eq!(fallbacks, jobs.len() - remote, "every other job fell back");
        assert_eq!(exec.exhausted_lanes(), 1);
        assert_eq!(exec.name(), "scripted");
    }

    #[test]
    fn each_run_reports_only_its_own_outcomes() {
        let s = synthesize(&benchmarks::demo()).unwrap();
        let job = || RegionJob {
            chip: &s.chip,
            requirements: &[],
        };
        let exec = executor();
        script(&exec, &[false], &[]);
        exec.run(&[job(), job(), job(), job()], &s.schedule, 3, true, 1);
        assert_eq!(exec.subprocess_counters(), (3, 1));
        assert_eq!(exec.events().len(), 2, "open failure + respawn");

        // A clean second run on the same executor: fresh lanes (one free
        // open) and nothing carried over from the first run.
        script(&exec, &[], &[]);
        exec.run(&[job(), job()], &s.schedule, 3, true, 1);
        assert_eq!(*exec.connect.opened.lock().unwrap(), 1);
        assert!(exec.events().is_empty());
        assert_eq!(exec.subprocess_counters(), (2, 0));
        assert_eq!(exec.exhausted_lanes(), 0);

        // An exhausting run, then an empty one: the empty run resets too.
        script(&exec, &[false; 4], &[]);
        exec.run(&[job(), job(), job(), job()], &s.schedule, 3, true, 1);
        assert_eq!(exec.exhausted_lanes(), 1);
        exec.run(&[], &s.schedule, 3, true, 1);
        assert!(exec.events().is_empty());
        assert_eq!(exec.subprocess_counters(), (0, 0));
        assert_eq!(exec.exhausted_lanes(), 0);
    }
}
