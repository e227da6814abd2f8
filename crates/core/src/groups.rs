//! Wash-target grouping, merging, and candidate-path enumeration.

use std::collections::HashSet;

use pdw_biochip::{CellSet, Chip, Coord, FlowPath, RouteScratch, ScratchPool};
use pdw_contam::{Source, WashRequirement};
use pdw_sched::{flow_duration, Schedule, TaskKind, Time};
use pdw_sim::DISSOLUTION_S;

use crate::config::CandidatePolicy;
use crate::par::par_map_ctx;
use crate::timeline::Timeline;

/// A candidate wash path for a group.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Candidate {
    /// The complete `[flow port → targets → waste port]` path.
    pub path: FlowPath,
    /// Required wash duration: flush time plus dissolution (Eq. 17).
    pub duration: Time,
}

impl Candidate {
    /// Builds a candidate from a complete wash path, deriving its required
    /// duration (flush + dissolution, Eq. 17).
    pub fn from_path(path: FlowPath) -> Self {
        let duration = flow_duration(path.len()) + DISSOLUTION_S;
        Self { path, duration }
    }
}

/// The targets contributed by one contaminating source: its dirty cells in
/// source-path order, with each cell's own reuse deadlines.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WashPart {
    /// Dirty cells, ordered along the contaminating flow path.
    pub seq: Vec<Coord>,
    /// The residue's source: the wash may start only after it ends
    /// (`t_{j,e}`, Eq. 16).
    pub ready: Source,
    /// Per-cell reuse deadlines (`t_{j,s}`, Eq. 16), parallel to `seq`.
    pub cell_deadlines: Vec<Vec<Source>>,
}

impl WashPart {
    fn singleton(cell: Coord, ready: Source, deadlines: Vec<Source>) -> Self {
        Self {
            seq: vec![cell],
            ready,
            cell_deadlines: vec![deadlines],
        }
    }

    /// Splits this part into single-cell parts, each keeping only its own
    /// deadlines.
    pub fn split_cells(&self) -> Vec<WashPart> {
        self.seq
            .iter()
            .zip(&self.cell_deadlines)
            .map(|(&c, d)| WashPart::singleton(c, self.ready, d.clone()))
            .collect()
    }
}

/// A wash operation under construction: one or more parts plus candidate
/// paths covering all their cells.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WashGroup {
    /// The contamination sources this wash serves.
    pub parts: Vec<WashPart>,
    /// Candidate wash paths, shortest first.
    pub candidates: Vec<Candidate>,
}

impl WashGroup {
    /// All target cells (flattened).
    pub fn targets(&self) -> Vec<Coord> {
        self.parts
            .iter()
            .flat_map(|p| p.seq.iter().copied())
            .collect()
    }

    /// All ready references (one per part).
    pub fn ready_refs(&self) -> Vec<Source> {
        self.parts.iter().map(|p| p.ready).collect()
    }

    /// All deadline references, deduplicated.
    pub fn deadline_refs(&self) -> Vec<Source> {
        let mut out: Vec<Source> = Vec::new();
        for p in &self.parts {
            for ds in &p.cell_deadlines {
                for &d in ds {
                    if !out.contains(&d) {
                        out.push(d);
                    }
                }
            }
        }
        out
    }

    /// The target sequences (one per part), for candidate enumeration.
    pub fn target_seqs(&self) -> Vec<Vec<Coord>> {
        self.parts.iter().map(|p| p.seq.clone()).collect()
    }
}

/// End time of a residue source in the current schedule. A source task that
/// was integrated away no longer deposits residue; it imposes no lower
/// bound.
pub(crate) fn source_end(schedule: &Schedule, s: Source) -> Time {
    match s {
        Source::Task(t) => schedule.get_task(t).map(|t| t.end()).unwrap_or(0),
        Source::Op(o) => schedule.scheduled_op(o).expect("op scheduled").end(),
    }
}

/// Start time of a future use in the current schedule. For an operation this
/// is the start of its device *occupancy* (its first delivery): a wash
/// covering device cells must finish before loading begins.
pub(crate) fn use_start(schedule: &Schedule, s: Source) -> Time {
    match s {
        Source::Task(t) => schedule.get_task(t).map(|t| t.start()).unwrap_or(Time::MAX),
        Source::Op(o) => {
            let mut start = schedule.scheduled_op(o).expect("op scheduled").start;
            for (_, task) in schedule.tasks() {
                let feeds = match *task.kind() {
                    TaskKind::Injection { op, .. } | TaskKind::ExcessRemoval { op } => op == o,
                    TaskKind::Transport { to_op, .. } => to_op == o,
                    _ => false,
                };
                if feeds {
                    start = start.min(task.start());
                }
            }
            start
        }
    }
}

/// Current `[ready, deadline]` window of a group.
pub(crate) fn window(schedule: &Schedule, g: &WashGroup) -> (Time, Time) {
    let ready = g
        .ready_refs()
        .iter()
        .map(|&s| source_end(schedule, s))
        .max()
        .unwrap_or(0);
    let deadline = g
        .deadline_refs()
        .iter()
        .map(|&s| use_start(schedule, s))
        .min()
        .unwrap_or(Time::MAX);
    (ready, deadline)
}

/// Cells blocked while routing a wash for `targets`: the footprints of every
/// device that contains none of the targets. A wash may thread through a
/// device only to wash it — an apparently idle device may hold a resident
/// plug exactly inside the wash's only feasible window.
fn wash_blocked(chip: &Chip, targets: &CellSet) -> Vec<Coord> {
    chip.devices()
        .iter()
        .filter(|d| !d.footprint().iter().any(|c| targets.contains(*c)))
        .flat_map(|d| d.footprint().iter().copied())
        .collect()
}

/// Enumerates candidate wash paths for the target sequences, shortest first.
///
/// Every flow/waste port pair is tried; target sequences are visited as
/// blocks (each forward or reversed, blocks ordered by distance from the
/// entry port) so the router follows the contamination trails.
pub fn enumerate_candidates(chip: &Chip, target_seqs: &[Vec<Coord>], k: usize) -> Vec<Candidate> {
    let mut scratch = RouteScratch::for_chip(chip);
    enumerate_with(chip, &mut scratch, target_seqs, k)
}

/// [`enumerate_candidates`] against a caller-held scratch (allocation-free
/// after warm-up).
fn enumerate_with(
    chip: &Chip,
    scratch: &mut RouteScratch,
    target_seqs: &[Vec<Coord>],
    k: usize,
) -> Vec<Candidate> {
    let targets: CellSet = target_seqs.iter().flatten().copied().collect();
    // Hopeless-query pruning: `route_via` greedily routes port-free legs, so
    // a target cell unreachable from a port with *no* blocking can never lie
    // on a wash path from that port — skipping those pairs cannot change the
    // output. Reachability of every target is equivalent to reachability of
    // any one (the via legs chain them into one port-free component).
    let reach = chip.port_reach();
    if targets.iter().any(|c| !reach.washable(c)) {
        return Vec::new();
    }
    let blocked = wash_blocked(chip, &targets);
    scratch.load_blocked(blocked);

    let mut found: Vec<FlowPath> = Vec::new();
    for (pi, fp) in chip.flow_ports().enumerate() {
        if targets.iter().any(|c| !reach.flow_reaches(pi, c)) {
            continue;
        }
        // Order the blocks near-to-far from the entry port; orient each
        // block to enter at its end nearest the previous position.
        let mut seqs: Vec<Vec<Coord>> = target_seqs.to_vec();
        seqs.sort_by_key(|s| s.iter().map(|c| c.manhattan(fp)).min().unwrap_or(u32::MAX));
        let mut via: Vec<Coord> = Vec::new();
        let mut pos = fp;
        for mut seq in seqs {
            let d_front = seq.first().map(|c| c.manhattan(pos)).unwrap_or(0);
            let d_back = seq.last().map(|c| c.manhattan(pos)).unwrap_or(0);
            if d_back < d_front {
                seq.reverse();
            }
            pos = *seq.last().expect("sequences are nonempty");
            via.extend(seq);
        }
        for (wi, wp) in chip.waste_ports().enumerate() {
            if targets.iter().any(|c| !reach.waste_reaches(wi, c)) {
                continue;
            }
            if let Some(cells) = chip.route_via_with(scratch, fp, &via, wp) {
                let path = FlowPath::new(cells).expect("route_via returns a simple path");
                if !found.contains(&path) {
                    found.push(path);
                }
            }
        }
    }
    found.sort_by_key(|p| p.len());
    found.truncate(k.max(1));
    found.into_iter().map(Candidate::from_path).collect()
}

/// Builds the initial wash groups from the requirements: one group per
/// contaminating source, targets in source-path order, per-cell deadlines.
/// Groups no single device-avoiding path covers are split into runs along
/// the contamination trail (and cells, if needed).
///
/// Candidate enumeration fans out over `threads` workers (0 = all cores),
/// one routing scratch per worker; per-source work is independent and
/// results merge in input order, so the output is identical at any thread
/// count.
pub fn build_groups(
    chip: &Chip,
    schedule: &Schedule,
    requirements: &[WashRequirement],
    policy: CandidatePolicy,
    k: usize,
    threads: usize,
) -> Vec<WashGroup> {
    let pool = ScratchPool::new();
    build_groups_pooled(chip, schedule, requirements, policy, k, threads, &pool)
}

/// [`build_groups`] drawing worker scratches from a caller-held pool, so a
/// context-carrying caller reuses warm buffers across calls (and across
/// instances). Output is identical to [`build_groups`].
pub(crate) fn build_groups_pooled(
    chip: &Chip,
    schedule: &Schedule,
    requirements: &[WashRequirement],
    policy: CandidatePolicy,
    k: usize,
    threads: usize,
    pool: &ScratchPool,
) -> Vec<WashGroup> {
    // One part per source.
    let mut parts: Vec<WashPart> = Vec::new();
    for r in requirements {
        if let Some(p) = parts.iter_mut().find(|p| p.ready == r.source) {
            if let Some(i) = p.seq.iter().position(|&c| c == r.cell) {
                if !p.cell_deadlines[i].contains(&r.next_use) {
                    p.cell_deadlines[i].push(r.next_use);
                }
            } else {
                p.seq.push(r.cell);
                p.cell_deadlines.push(vec![r.next_use]);
            }
        } else {
            parts.push(WashPart::singleton(r.cell, r.source, vec![r.next_use]));
        }
    }

    // Order each part's cells along its source path.
    for p in &mut parts {
        let mut order: Vec<usize> = (0..p.seq.len()).collect();
        match p.ready {
            Source::Task(t) => {
                let path = schedule.task(t).path();
                order.sort_by_key(|&i| {
                    path.cells()
                        .iter()
                        .position(|c| *c == p.seq[i])
                        .unwrap_or(usize::MAX)
                });
            }
            Source::Op(_) => order.sort_by_key(|&i| p.seq[i]),
        }
        p.seq = order.iter().map(|&i| p.seq[i]).collect();
        p.cell_deadlines = order.iter().map(|&i| p.cell_deadlines[i].clone()).collect();
    }

    let k_eff = match policy {
        CandidatePolicy::Shortest => k,
        CandidatePolicy::Nearest => 1,
    };
    let nested = par_map_ctx(
        &parts,
        threads,
        || pool.checkout(chip),
        |scratch, _, part| {
            let scratch: &mut RouteScratch = scratch;
            let mut out: Vec<WashGroup> = Vec::new();
            for piece in coverable_pieces(chip, scratch, schedule, part.clone(), k_eff) {
                let mut g = WashGroup {
                    candidates: enumerate_with(
                        chip,
                        scratch,
                        std::slice::from_ref(&piece.seq),
                        k_eff,
                    ),
                    parts: vec![piece],
                };
                assert!(
                    !g.candidates.is_empty(),
                    "no wash path reaches {:?}; chip layout is broken",
                    g.targets()
                );
                if policy == CandidatePolicy::Nearest {
                    nearest_candidate(chip, scratch, &mut g);
                }
                out.push(g);
            }
            out
        },
    );
    nested.into_iter().flatten().collect()
}

/// Splits a part into pieces that a single device-avoiding path can cover:
/// the whole part if possible, else maximal source-path runs, else cells.
fn coverable_pieces(
    chip: &Chip,
    scratch: &mut RouteScratch,
    schedule: &Schedule,
    part: WashPart,
    k: usize,
) -> Vec<WashPart> {
    if !enumerate_with(chip, scratch, std::slice::from_ref(&part.seq), k).is_empty() {
        return vec![part];
    }
    let runs = split_runs(schedule, &part);
    let mut out = Vec::new();
    for run in runs {
        if enumerate_with(chip, scratch, std::slice::from_ref(&run.seq), k).is_empty() {
            out.extend(run.split_cells());
        } else {
            out.push(run);
        }
    }
    out
}

/// Splits a part into maximal runs of cells that are consecutive on the
/// contaminating source's flow path (singletons when the source is an
/// operation).
fn split_runs(schedule: &Schedule, part: &WashPart) -> Vec<WashPart> {
    split_runs_gapped(schedule, part, 1)
}

/// Like [`split_runs`], but cells up to `gap` positions apart on the source
/// path stay in one run, with the bridging (clean) cells included in the
/// wash targets.
fn split_runs_gapped(schedule: &Schedule, part: &WashPart, gap: usize) -> Vec<WashPart> {
    let Source::Task(t) = part.ready else {
        // Operation residue covers its device footprint: contiguous cells
        // form one spot cluster.
        let mut runs: Vec<WashPart> = Vec::new();
        for (i, &c) in part.seq.iter().enumerate() {
            let deadlines = part.cell_deadlines[i].clone();
            match runs.last_mut() {
                Some(run) if run.seq.iter().any(|&p| p.is_adjacent(c)) => {
                    run.seq.push(c);
                    run.cell_deadlines.push(deadlines);
                }
                _ => runs.push(WashPart::singleton(c, part.ready, deadlines)),
            }
        }
        return runs;
    };
    let path = schedule.task(t).path();
    let pos = |c: &Coord| {
        path.cells()
            .iter()
            .position(|p| p == c)
            .unwrap_or(usize::MAX)
    };
    let mut runs: Vec<WashPart> = Vec::new();
    for (i, &c) in part.seq.iter().enumerate() {
        let deadlines = part.cell_deadlines[i].clone();
        let p = pos(&c);
        match runs.last_mut() {
            Some(run) if p.saturating_sub(pos(run.seq.last().expect("nonempty"))) <= gap => {
                // Bridge across exempt cells on the source path.
                let last = pos(run.seq.last().expect("nonempty"));
                for bridge in last + 1..p {
                    run.seq.push(path.cells()[bridge]);
                    run.cell_deadlines.push(Vec::new());
                }
                run.seq.push(c);
                run.cell_deadlines.push(deadlines);
            }
            _ => runs.push(WashPart::singleton(c, part.ready, deadlines)),
        }
    }
    runs
}

/// Replaces a group's candidates with the DAWO-style single path: BFS from
/// the flow port nearest the targets, to the first waste port that works.
fn nearest_candidate(chip: &Chip, scratch: &mut RouteScratch, g: &mut WashGroup) {
    let targets = g.targets();
    let target_set: CellSet = targets.iter().copied().collect();
    let blocked = wash_blocked(chip, &target_set);
    scratch.load_blocked(blocked);
    let mut fps: Vec<Coord> = chip.flow_ports().collect();
    fps.sort_by_key(|fp| {
        targets
            .iter()
            .map(|c| c.manhattan(*fp))
            .min()
            .unwrap_or(u32::MAX)
    });
    for fp in fps {
        let mut via: Vec<Coord> = Vec::new();
        let mut pos = fp;
        for p in &g.parts {
            let mut seq = p.seq.clone();
            let d_front = seq.first().map(|c| c.manhattan(pos)).unwrap_or(0);
            let d_back = seq.last().map(|c| c.manhattan(pos)).unwrap_or(0);
            if d_back < d_front {
                seq.reverse();
            }
            pos = *seq.last().expect("nonempty");
            via.extend(seq);
        }
        let mut wps: Vec<Coord> = chip.waste_ports().collect();
        wps.sort_by_key(|wp| pos.manhattan(*wp));
        for wp in wps {
            if let Some(cells) = chip.route_via_with(scratch, fp, &via, wp) {
                let path = FlowPath::new(cells).expect("simple path");
                g.candidates = vec![Candidate::from_path(path)];
                return;
            }
        }
    }
    g.candidates.truncate(1);
}

/// Splits every group into one group per contaminated *spot cluster* (the
/// DAWO baseline's behaviour: wash operations are introduced per
/// contaminated spot region and their paths constructed independently — no
/// resource sharing). Dirty cells closer than `gap` steps along the source
/// path fall into the same cluster; the clean cells bridging them are
/// flushed along (wastefully, but that is the baseline).
pub fn split_into_spot_clusters(
    chip: &Chip,
    schedule: &Schedule,
    groups: Vec<WashGroup>,
    gap: usize,
    policy: CandidatePolicy,
    k: usize,
    threads: usize,
) -> Vec<WashGroup> {
    let pool = ScratchPool::new();
    split_into_spot_clusters_pooled(chip, schedule, groups, gap, policy, k, threads, &pool)
}

/// [`split_into_spot_clusters`] drawing worker scratches from a caller-held
/// pool. Output is identical to [`split_into_spot_clusters`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn split_into_spot_clusters_pooled(
    chip: &Chip,
    schedule: &Schedule,
    groups: Vec<WashGroup>,
    gap: usize,
    policy: CandidatePolicy,
    k: usize,
    threads: usize,
    pool: &ScratchPool,
) -> Vec<WashGroup> {
    let nested = par_map_ctx(
        &groups,
        threads,
        || pool.checkout(chip),
        |scratch, _, g| {
            let scratch: &mut RouteScratch = scratch;
            let mut out: Vec<WashGroup> = Vec::new();
            for part in &g.parts {
                for run in split_runs_gapped(schedule, part, gap) {
                    let mut sub = WashGroup {
                        candidates: enumerate_with(
                            chip,
                            scratch,
                            std::slice::from_ref(&run.seq),
                            k,
                        ),
                        parts: vec![run],
                    };
                    if sub.candidates.is_empty() {
                        // Unreachable as one flush: wash cell by cell.
                        for piece in sub.parts[0].split_cells() {
                            let mut cellg = WashGroup {
                                candidates: enumerate_with(
                                    chip,
                                    scratch,
                                    std::slice::from_ref(&piece.seq),
                                    k,
                                ),
                                parts: vec![piece],
                            };
                            assert!(!cellg.candidates.is_empty(), "unreachable channel cell");
                            if policy == CandidatePolicy::Nearest {
                                nearest_candidate(chip, scratch, &mut cellg);
                            }
                            out.push(cellg);
                        }
                        continue;
                    }
                    if policy == CandidatePolicy::Nearest {
                        nearest_candidate(chip, scratch, &mut sub);
                    }
                    out.push(sub);
                }
            }
            out
        },
    );
    nested.into_iter().flatten().collect()
}

/// Greedily merges compatible groups: overlapping time windows, a routable
/// combined path no longer than the separate ones, and — crucially — a
/// conflict-free slot for the combined wash inside the combined window of
/// the *current* schedule. (Without the fit check a merge can become a delay
/// trap: e.g. a device wash pinned under another member's earlier deadline
/// while the device still holds a resident plug.) Pairs are scanned in
/// lexicographic order and the first acceptable merge is applied; each
/// pair's verdict is computed at most once.
pub fn merge_groups(
    chip: &Chip,
    schedule: &Schedule,
    groups: Vec<WashGroup>,
    k: usize,
) -> Vec<WashGroup> {
    let pool = ScratchPool::new();
    merge_pass(chip, schedule, groups, k, &pool, false)
}

/// Merged groups are capped at this many parts to keep waypoint ordering
/// tractable.
const MAX_MERGED_PARTS: usize = 6;

/// One group inside a [`merge_pass`], with what the pass reads of it cached.
struct Member {
    /// Stable within the pass; a group that absorbs another gets a fresh id.
    id: usize,
    group: WashGroup,
    /// `window(schedule, &group)`, computed once.
    window: (Time, Time),
}

/// The one group-merge loop. Scans pairs `(i, j)`, `i < j`, in
/// lexicographic order and applies the first acceptable merge (group `i`
/// absorbs group `j`, taking the combined candidates), then rescans from the
/// start until no pair merges.
///
/// With `overlap_gate`, only pairs whose current best paths share a cell
/// are considered: the partitioned pipeline's cross-bucket cleanup pass.
/// In-bucket merging already consolidated whatever shares a span view, and
/// across buckets disjoint best paths would make the combined path longer
/// than the separate ones.
///
/// The schedule and its [`Timeline`] never change within a pass, so a
/// pair's verdict is a pure function of the two groups' contents. Each
/// group carries a stable id (fresh when it absorbs another), and rejected
/// id pairs are remembered: a rescan probes only pairs involving the group
/// just merged. Each group's window is computed once; a merged window is
/// `(max ready, min deadline)` of the two, exactly what [`window`] gives on
/// the union of their references. The result is exactly what the plain
/// restart loop (re-probing every pair after every merge) returns, with far
/// fewer combined-path enumerations.
pub(crate) fn merge_pass(
    chip: &Chip,
    schedule: &Schedule,
    groups: Vec<WashGroup>,
    k: usize,
    pool: &ScratchPool,
    overlap_gate: bool,
) -> Vec<WashGroup> {
    let timeline = Timeline::new(chip, schedule);
    let mut scratch = pool.checkout(chip);
    let scratch: &mut RouteScratch = &mut scratch;
    let mut members: Vec<Member> = groups
        .into_iter()
        .enumerate()
        .map(|(id, group)| Member {
            id,
            window: window(schedule, &group),
            group,
        })
        .collect();
    let mut next_id = members.len();
    let mut rejected: HashSet<(usize, usize)> = HashSet::new();
    'scan: loop {
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                let key = (members[i].id, members[j].id);
                if rejected.contains(&key) {
                    continue;
                }
                let Some(cands) = probe(
                    chip,
                    &timeline,
                    scratch,
                    &members[i],
                    &members[j],
                    k,
                    overlap_gate,
                ) else {
                    rejected.insert(key);
                    continue;
                };
                let mj = members.remove(j);
                let mi = &mut members[i];
                mi.group.parts.extend(mj.group.parts);
                mi.group.candidates = cands;
                mi.window = (mi.window.0.max(mj.window.0), mi.window.1.min(mj.window.1));
                mi.id = next_id;
                next_id += 1;
                continue 'scan;
            }
        }
        return members.into_iter().map(|m| m.group).collect();
    }
}

/// The merge verdict for `a` absorbing `b`: the combined candidates if the
/// merge is acceptable, `None` otherwise. Enumerates a combined path only
/// for pairs [`ruled_out`] cannot reject.
fn probe(
    chip: &Chip,
    timeline: &Timeline,
    scratch: &mut RouteScratch,
    a: &Member,
    b: &Member,
    k: usize,
    overlap_gate: bool,
) -> Option<Vec<Candidate>> {
    let (ga, gb) = (&a.group, &b.group);
    if ga.parts.len() + gb.parts.len() > MAX_MERGED_PARTS {
        return None;
    }
    let (pa, pb) = (&ga.candidates[0].path, &gb.candidates[0].path);
    if overlap_gate && !pa.mask().intersects(pb.mask()) {
        return None;
    }
    let ready = a.window.0.max(b.window.0);
    let deadline = a.window.1.min(b.window.1);
    if ready >= deadline || ruled_out(timeline, ga, gb, ready, deadline) {
        return None;
    }
    let mut seqs = ga.target_seqs();
    seqs.extend(gb.target_seqs());
    let cands = enumerate_with(chip, scratch, &seqs, k);
    let best = cands.first()?;
    if ready + best.duration > deadline {
        return None;
    }
    if best.path.len() > pa.len() + pb.len() {
        return None; // merging would lengthen L_wash more than α saves
    }
    // The combined wash must actually fit in the window now.
    timeline.earliest_fit(best.path.mask(), ready, best.duration, Some(deadline))?;
    Some(cands)
}

/// `true` when no combined path of `a` and `b` can pass [`probe`]'s checks
/// in the window `[ready, deadline]`, decided without routing one.
///
/// Any combined path is simple and visits every target, so it has at least
/// `|T|` cells for the distinct targets `T`, and its wash lasts at least
/// `lb = flow_duration(|T|) + DISSOLUTION_S`. The pair is ruled out when
/// `|T|` already exceeds the separate paths' total length, when
/// `ready + lb` overshoots the deadline, or when `T` itself has no slot of
/// length `lb` in the window. The last test is exact because
/// [`Timeline::earliest_fit`] is complete (it tries `ready` and every item
/// end) and monotone: a slot free for a superset of cells over a longer
/// duration is free for the subset over the shorter one.
fn ruled_out(
    timeline: &Timeline,
    a: &WashGroup,
    b: &WashGroup,
    ready: Time,
    deadline: Time,
) -> bool {
    let targets: CellSet = a.targets().into_iter().chain(b.targets()).collect();
    let lb = flow_duration(targets.len()) + DISSOLUTION_S;
    targets.len() > a.candidates[0].path.len() + b.candidates[0].path.len()
        || ready + lb > deadline
        || timeline
            .earliest_fit(&targets, ready, lb, Some(deadline))
            .is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_contam::{analyze, NecessityOptions};
    use pdw_synth::synthesize;

    fn demo_groups(policy: CandidatePolicy) -> (pdw_synth::Synthesis, Vec<WashGroup>) {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let g = build_groups(&s.chip, &s.schedule, &a.requirements, policy, 3, 0);
        (s, g)
    }

    #[test]
    fn every_group_covers_its_targets() {
        let (_, groups) = demo_groups(CandidatePolicy::Shortest);
        assert!(!groups.is_empty());
        for g in &groups {
            assert!(!g.candidates.is_empty());
            for cand in &g.candidates {
                for cell in g.targets() {
                    assert!(cand.path.contains(cell), "candidate misses target {cell}");
                }
            }
        }
    }

    #[test]
    fn groups_cover_every_requirement_cell() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let groups = build_groups(
            &s.chip,
            &s.schedule,
            &a.requirements,
            CandidatePolicy::Shortest,
            3,
            0,
        );
        for r in &a.requirements {
            assert!(
                groups.iter().any(|g| g
                    .parts
                    .iter()
                    .any(|p| p.ready == r.source && p.seq.contains(&r.cell))),
                "requirement {:?} not covered by any group",
                r
            );
        }
    }

    #[test]
    fn candidates_are_sorted_shortest_first() {
        let (_, groups) = demo_groups(CandidatePolicy::Shortest);
        for g in &groups {
            assert!(g
                .candidates
                .windows(2)
                .all(|w| w[0].path.len() <= w[1].path.len()));
        }
    }

    #[test]
    fn merging_never_increases_group_count() {
        let (s, groups) = demo_groups(CandidatePolicy::Shortest);
        let before = groups.len();
        let merged = merge_groups(&s.chip, &s.schedule, groups, 3);
        assert!(merged.len() <= before);
        for g in &merged {
            assert!(!g.candidates.is_empty());
        }
    }

    #[test]
    fn nearest_policy_yields_single_candidates() {
        let (_, groups) = demo_groups(CandidatePolicy::Nearest);
        for g in &groups {
            assert_eq!(g.candidates.len(), 1);
        }
    }

    /// The restart loop [`merge_pass`] replaces: after every accepted merge
    /// the scan restarts at the first pair and re-probes every pair,
    /// recomputing both windows and enumerating a combined path each time.
    fn restart_oracle(
        chip: &Chip,
        schedule: &Schedule,
        mut groups: Vec<WashGroup>,
        k: usize,
        overlap_gate: bool,
    ) -> Vec<WashGroup> {
        let timeline = Timeline::new(chip, schedule);
        let mut scratch = RouteScratch::for_chip(chip);
        let mut merged = true;
        while merged {
            merged = false;
            'pairs: for i in 0..groups.len() {
                for j in i + 1..groups.len() {
                    let verdict = oracle_verdict(
                        chip,
                        schedule,
                        &timeline,
                        &mut scratch,
                        (&groups[i], &groups[j]),
                        k,
                        overlap_gate,
                    );
                    let Some(cands) = verdict else { continue };
                    let gj = groups.remove(j);
                    groups[i].parts.extend(gj.parts);
                    groups[i].candidates = cands;
                    merged = true;
                    break 'pairs;
                }
            }
        }
        groups
    }

    /// The full pair check without any prefilter. Every pair it accepts is
    /// asserted to survive [`ruled_out`].
    fn oracle_verdict(
        chip: &Chip,
        schedule: &Schedule,
        timeline: &Timeline,
        scratch: &mut RouteScratch,
        (gi, gj): (&WashGroup, &WashGroup),
        k: usize,
        overlap_gate: bool,
    ) -> Option<Vec<Candidate>> {
        if gi.parts.len() + gj.parts.len() > 6 {
            return None;
        }
        let (pi, pj) = (&gi.candidates[0].path, &gj.candidates[0].path);
        if overlap_gate && !pi.mask().intersects(pj.mask()) {
            return None;
        }
        let (ri, di) = window(schedule, gi);
        let (rj, dj) = window(schedule, gj);
        let (ready, deadline) = (ri.max(rj), di.min(dj));
        if ready >= deadline {
            return None;
        }
        let mut seqs = gi.target_seqs();
        seqs.extend(gj.target_seqs());
        let cands = enumerate_with(chip, scratch, &seqs, k);
        let best = cands.first()?;
        if ready + best.duration > deadline || best.path.len() > pi.len() + pj.len() {
            return None;
        }
        timeline.earliest_fit(best.path.mask(), ready, best.duration, Some(deadline))?;
        assert!(
            !ruled_out(timeline, gi, gj, ready, deadline),
            "the prefilter rejected an acceptable merge"
        );
        Some(cands)
    }

    /// Spot-cluster front-end groups, as the pipeline feeds them to merging.
    fn front_end(
        bench: &pdw_assay::benchmarks::Benchmark,
        s: &pdw_synth::Synthesis,
    ) -> Vec<WashGroup> {
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let g = build_groups(
            &s.chip,
            &s.schedule,
            &a.requirements,
            CandidatePolicy::Shortest,
            3,
            1,
        );
        split_into_spot_clusters(&s.chip, &s.schedule, g, 4, CandidatePolicy::Shortest, 3, 1)
    }

    /// Seeded instances plus one mega-grid instance.
    fn merge_corpus() -> Vec<(pdw_assay::benchmarks::Benchmark, pdw_synth::Synthesis)> {
        let mut corpus: Vec<_> = (0..40)
            .filter_map(|seed| pdw_gen::instance(&pdw_gen::spec_from_seed(seed)).ok())
            .collect();
        let mega = pdw_gen::mega_instance(&pdw_gen::mega_spec(65, 8, 1)).expect("mega instance");
        corpus.push(mega);
        corpus
    }

    #[test]
    fn merge_pass_matches_the_restart_loop_bit_for_bit() {
        let pool = ScratchPool::new();
        for (bench, s) in merge_corpus() {
            let groups = front_end(&bench, &s);
            for overlap_gate in [false, true] {
                let fast = merge_pass(&s.chip, &s.schedule, groups.clone(), 3, &pool, overlap_gate);
                let slow = restart_oracle(&s.chip, &s.schedule, groups.clone(), 3, overlap_gate);
                assert_eq!(
                    crate::codec::canonical_bytes(&fast),
                    crate::codec::canonical_bytes(&slow),
                    "{} (overlap gate {overlap_gate}): merged groups differ",
                    bench.name
                );
            }
        }
    }

    #[test]
    fn prefilter_never_rejects_a_pair_the_full_check_accepts() {
        // `oracle_verdict` asserts that every pair it accepts survives
        // `ruled_out`, at every stage of the restart loop.
        let (mut merges, mut filtered) = (0, 0);
        for (bench, s) in merge_corpus() {
            let groups = front_end(&bench, &s);
            let timeline = Timeline::new(&s.chip, &s.schedule);
            for (i, gi) in groups.iter().enumerate() {
                for gj in &groups[i + 1..] {
                    let (ri, di) = window(&s.schedule, gi);
                    let (rj, dj) = window(&s.schedule, gj);
                    let (ready, deadline) = (ri.max(rj), di.min(dj));
                    if ready < deadline && ruled_out(&timeline, gi, gj, ready, deadline) {
                        filtered += 1;
                    }
                }
            }
            let before = groups.len();
            merges += before - restart_oracle(&s.chip, &s.schedule, groups, 3, false).len();
        }
        assert!(merges > 0, "the corpus exercises accepted merges");
        assert!(filtered > 0, "the corpus exercises the prefilter");
    }

    #[test]
    fn group_windows_are_ordered() {
        // Ready may equal the deadline (back-to-back tasks leave no slack;
        // the schedulers then shift the schedule), but never exceed it.
        let (s, groups) = demo_groups(CandidatePolicy::Shortest);
        for g in &groups {
            let (ready, deadline) = window(&s.schedule, g);
            assert!(ready <= deadline, "window [{ready}, {deadline}] inverted");
        }
    }
}
