//! `sgtrace`: the flight-recorder trace analyzer.
//!
//! Consumes the JSON-lines dumps written by the harnesses' `--trace`
//! flag (`table2`, `fig7`, `fig6`, `ablations`) and answers the
//! questions the raw event stream encodes:
//!
//! * `sgtrace timeline TRACE` — per-episode recovery timelines with
//!   per-mechanism latency attribution. Independently re-sums every
//!   timed span of each episode and checks **conservation**: the
//!   attributed spans must account for 100% of the episode's recorded
//!   latency (exit 1 on any mismatch).
//! * `sgtrace tree TRACE` — the causal fault-propagation tree of every
//!   recovery episode, rooted at the fault event.
//! * `sgtrace diff A B` — episode-by-episode comparison of two traces
//!   (e.g. C³ vs SuperGlue, or two seeds): mechanism counts and
//!   attributed latency per episode, plus whole-trace totals.
//! * `sgtrace verify TRACE` — recovery-soundness conformance: every
//!   observed σ-walk replay sequence must be explainable by a replay
//!   plan computable from the shipped IDL (shortest walks after
//!   `sm_recover_via`, `sm_recover_block` substitutions at blocking
//!   steps, and the `*_restore` creation substitution for global
//!   descriptors) — the dynamic counterpart of `sglint`'s static
//!   conformance checks (exit 1 on any unexplained walk).
//! * `sgtrace replay ARTIFACT [--to SPAN]` — time travel through a
//!   `modelcheck` core counterexample: replays the recorded event
//!   sequence through the pure kernel transition function
//!   (`composite_core::step`), snapshotting the `KernelState` after
//!   every event (O(1) each — the tables are `Arc`-shared), and prints
//!   the state as of event `SPAN` (default: the final, violating
//!   state). Because the core is pure, the replay is exact: the state
//!   printed is byte-for-byte the state the checker saw.

use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

use composite::{step, Json, KernelWalk, Model as _, ThreadState};
use sg_bench::modelck::event_from_json;
use superglue_compiler::CompiledStubSpec;
use superglue_sm::{FnId, State};

// ---------------------------------------------------------------------
// Parsed trace model
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Shard {
    label: String,
    names: Vec<String>,
    dropped: u64,
    /// Recovery-class events lost to ring overflow; when zero, latency
    /// attribution is complete even if ambient `dropped > 0`.
    dropped_recovery: u64,
    events: Vec<Ev>,
}

#[derive(Debug, Clone, Default)]
struct Ev {
    span: u64,
    parent: Option<u64>,
    ts: u64,
    dur: u64,
    comp: u64,
    epoch: u64,
    kind: String,
    function: Option<String>,
    mech: Option<String>,
    n: Option<u64>,
    desc: Option<i64>,
    outcome: Option<String>,
    attributed: Option<u64>,
    /// Nesting depth of a correlated fault (present only when > 0).
    depth: Option<u64>,
    until: Option<u64>,
}

impl Ev {
    fn from_json(j: &Json) -> Result<Ev, String> {
        Ok(Ev {
            span: j.get("span").and_then(Json::as_u64).ok_or("missing span")?,
            parent: j.get("parent").and_then(Json::as_u64),
            ts: j.get("ts").and_then(Json::as_u64).ok_or("missing ts")?,
            dur: j.get("dur").and_then(Json::as_u64).unwrap_or(0),
            comp: j.get("comp").and_then(Json::as_u64).unwrap_or(0),
            epoch: j.get("epoch").and_then(Json::as_u64).unwrap_or(0),
            kind: j
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("missing kind")?
                .to_owned(),
            function: j.get("function").and_then(Json::as_str).map(str::to_owned),
            mech: j.get("mech").and_then(Json::as_str).map(str::to_owned),
            n: j.get("n").and_then(Json::as_u64),
            desc: j.get("desc").and_then(Json::as_i64),
            outcome: j.get("outcome").and_then(Json::as_str).map(str::to_owned),
            attributed: j.get("attributed").and_then(Json::as_u64),
            depth: j.get("depth").and_then(Json::as_u64),
            until: j.get("until").and_then(Json::as_u64),
        })
    }
}

fn parse_trace(path: &str) -> Result<Vec<Shard>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut shards: Vec<Shard> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if let Some(label) = j.get("shard").and_then(Json::as_str) {
            shards.push(Shard {
                label: label.to_owned(),
                names: j
                    .get("names")
                    .and_then(Json::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Json::as_str)
                            .map(str::to_owned)
                            .collect()
                    })
                    .unwrap_or_default(),
                dropped: j.get("dropped").and_then(Json::as_u64).unwrap_or(0),
                dropped_recovery: j
                    .get("dropped_recovery")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                events: Vec::new(),
            });
        } else {
            let ev = Ev::from_json(&j).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
            shards
                .last_mut()
                .ok_or_else(|| format!("{path}:{}: event before any shard header", lineno + 1))?
                .events
                .push(ev);
        }
    }
    // A trace without events (empty, or shard headers only) means the
    // harness recorded nothing; every check over it would pass vacuously.
    if shards.iter().all(|s| s.events.is_empty()) {
        return Err(format!(
            "{path}: no trace events ({} shard header(s)): nothing to check",
            shards.len()
        ));
    }
    Ok(shards)
}

fn comp_name(shard: &Shard, comp: u64) -> &str {
    shard.names.get(comp as usize).map_or("?", String::as_str)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

// ---------------------------------------------------------------------
// Episode reconstruction
// ---------------------------------------------------------------------

/// One reconstructed recovery episode: fault → (reboot + walks + storage
/// + upcalls) → episode end.
#[derive(Debug, Clone, Default)]
struct Episode {
    component: String,
    start: u64,
    end: u64,
    /// Latency the kernel attributed (from the `episode_end` event).
    attributed: u64,
    /// Latency this analyzer independently re-summed from timed spans.
    resummed: u64,
    /// Timed-span buckets: label -> (count, total ns).
    buckets: BTreeMap<String, (u64, u64)>,
    /// σ-walk replays in order: (descriptor, mechanism, function).
    walk_steps: Vec<(Option<i64>, String, String)>,
    /// Mechanism firings inside the episode: mech -> total n.
    mech_counts: BTreeMap<String, u64>,
    /// Nesting depth at open time: 0 for a top-level fault, >0 for a
    /// correlated fault raised while this component's recovery was
    /// already in flight (a child in the episode tree).
    depth: usize,
    closed: bool,
}

/// The attribution bucket of one timed event.
fn bucket_of(ev: &Ev) -> String {
    match ev.kind.as_str() {
        "reboot" => "reboot".to_owned(),
        "walk_step" => format!("{}-walk", ev.mech.as_deref().unwrap_or("?")),
        "mechanism" => ev.mech.clone().unwrap_or_else(|| "?".to_owned()),
        other => other.to_owned(),
    }
}

/// Linear scan mirroring the kernel-side recorder: a `fault` on
/// component `c` pushes an episode on `c`'s stack (a correlated fault
/// mid-recovery pushes a *child*), each `episode_end` on `c` pops the
/// innermost, and timed events on `c` accumulate into the innermost open
/// episode alone — so attribution conservation holds independently for
/// every node of the episode tree.
fn episodes_of(shard: &Shard) -> Vec<Episode> {
    let mut open: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut eps: Vec<Episode> = Vec::new();
    for ev in &shard.events {
        match ev.kind.as_str() {
            "fault" => {
                let stack = open.entry(ev.comp).or_default();
                let idx = eps.len();
                eps.push(Episode {
                    component: comp_name(shard, ev.comp).to_owned(),
                    start: ev.ts,
                    end: ev.ts,
                    depth: stack.len(),
                    ..Episode::default()
                });
                stack.push(idx);
            }
            "episode_end" => {
                if let Some(idx) = open.get_mut(&ev.comp).and_then(Vec::pop) {
                    eps[idx].attributed = ev.attributed.unwrap_or(0);
                    eps[idx].end = ev.ts;
                    eps[idx].closed = true;
                }
            }
            _ => {
                if let Some(&idx) = open.get(&ev.comp).and_then(|s| s.last()) {
                    let ep = &mut eps[idx];
                    if ev.dur > 0 {
                        ep.resummed += ev.dur;
                        let b = ep.buckets.entry(bucket_of(ev)).or_insert((0, 0));
                        b.0 += 1;
                        b.1 += ev.dur;
                    }
                    if ev.kind == "walk_step" {
                        ep.walk_steps.push((
                            ev.desc,
                            ev.mech.clone().unwrap_or_default(),
                            ev.function.clone().unwrap_or_default(),
                        ));
                    }
                    if ev.kind == "mechanism" {
                        *ep.mech_counts
                            .entry(ev.mech.clone().unwrap_or_default())
                            .or_insert(0) += ev.n.unwrap_or(0);
                    }
                }
            }
        }
    }
    eps
}

fn buckets_line(ep: &Episode) -> String {
    ep.buckets
        .iter()
        .map(|(k, (n, ns))| format!("{k} {n}x{:.1}us", us(*ns)))
        .collect::<Vec<_>>()
        .join("  ")
}

// ---------------------------------------------------------------------
// timeline
// ---------------------------------------------------------------------

fn cmd_timeline(path: &str) -> Result<ExitCode, String> {
    let shards = parse_trace(path)?;
    let mut episodes = 0u64;
    let mut mismatches = 0u64;
    let mut unchecked = 0u64;
    let mut totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut mech_totals: BTreeMap<String, u64> = BTreeMap::new();

    for shard in &shards {
        for ev in &shard.events {
            if ev.kind == "mechanism" {
                *mech_totals
                    .entry(ev.mech.clone().unwrap_or_default())
                    .or_insert(0) += ev.n.unwrap_or(0);
            }
        }
        let eps = episodes_of(shard);
        if eps.is_empty() {
            continue;
        }
        println!(
            "== {} ({} events, {} ambient + {} recovery-class dropped) ==",
            shard.label,
            shard.events.len(),
            shard.dropped,
            shard.dropped_recovery
        );
        for (i, ep) in eps.iter().enumerate() {
            episodes += 1;
            for (k, (n, ns)) in &ep.buckets {
                let t = totals.entry(k.clone()).or_insert((0, 0));
                t.0 += n;
                t.1 += ns;
            }
            let check = if shard.dropped_recovery > 0 {
                unchecked += 1;
                "SKIP (ring dropped recovery events)"
            } else if ep.resummed == ep.attributed {
                "OK"
            } else {
                mismatches += 1;
                "MISMATCH"
            };
            // Children of the episode tree print indented under their
            // parent fault (the preceding shallower episode).
            let tag = if ep.depth > 0 { " nested" } else { "" };
            println!(
                "  {:indent$}#{i:<3} {:<8}{tag} fault@{:>12.1}us  attributed {:>10.1}us  | {} | {check}",
                "",
                ep.component,
                us(ep.start),
                us(ep.attributed),
                buckets_line(ep),
                indent = ep.depth * 2,
            );
            if check == "MISMATCH" {
                println!(
                    "       re-summed spans total {:.1}us != recorded {:.1}us",
                    us(ep.resummed),
                    us(ep.attributed)
                );
            }
        }
    }

    println!();
    println!("mechanism firings (whole trace):");
    for (m, n) in &mech_totals {
        println!("  {m:<4} {n}");
    }
    println!("attributed latency by bucket (all episodes):");
    for (k, (n, ns)) in &totals {
        println!("  {k:<10} {n:>8}x  {:>14.1}us", us(*ns));
    }
    println!();
    if mismatches == 0 {
        println!(
            "{episodes} episodes: latency attribution conserved in all checked episodes \
             ({unchecked} skipped for ring overflow)"
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{mismatches}/{episodes} episodes FAILED attribution conservation");
        Ok(ExitCode::FAILURE)
    }
}

// ---------------------------------------------------------------------
// tree
// ---------------------------------------------------------------------

fn describe(shard: &Shard, ev: &Ev) -> String {
    let comp = comp_name(shard, ev.comp);
    let f = || ev.function.as_deref().unwrap_or("?");
    match ev.kind.as_str() {
        "fault" => match ev.depth {
            Some(d) if d > 0 => format!("FAULT {comp} (nested x{d})"),
            _ => format!("FAULT {comp}"),
        },
        "watchdog" => format!("WATCHDOG {comp} (hang detected)"),
        "degraded" => format!(
            "{comp} marked degraded until {:.1}us",
            us(ev.until.unwrap_or(0))
        ),
        "cold_restart" => format!(
            "cold restart {comp} -> epoch {} ({:.1}us)",
            ev.epoch,
            us(ev.dur)
        ),
        "reboot" => format!("reboot {comp} -> epoch {} ({:.1}us)", ev.epoch, us(ev.dur)),
        "walk_step" => format!(
            "{} replay {comp}.{}{} ({:.1}us)",
            ev.mech.as_deref().unwrap_or("?"),
            f(),
            ev.desc.map(|d| format!(" desc={d}")).unwrap_or_default(),
            us(ev.dur)
        ),
        "mechanism" => {
            let base = format!(
                "{} x{}",
                ev.mech.as_deref().unwrap_or("?"),
                ev.n.unwrap_or(0)
            );
            if ev.dur > 0 {
                format!("{base} ({:.1}us)", us(ev.dur))
            } else {
                base
            }
        }
        "invoke_enter" => format!("call {comp}.{}", f()),
        "invoke_exit" => format!("ret {}", ev.outcome.as_deref().unwrap_or("?")),
        "upcall" => format!("upcall {comp}.{} ", f()),
        "wake" => format!("wake ({comp})"),
        "block" => format!("block in {comp}"),
        "sleep" => "sleep".to_owned(),
        "desc_created" => format!("{comp} tracks desc {}", ev.desc.unwrap_or(0)),
        "desc_closed" => format!(
            "{comp} drops desc {} (+{} in subtree)",
            ev.desc.unwrap_or(0),
            ev.n.unwrap_or(0)
        ),
        "episode_end" => format!(
            "episode end: {:.1}us attributed",
            us(ev.attributed.unwrap_or(0))
        ),
        other => other.to_owned(),
    }
}

fn print_subtree(
    shard: &Shard,
    by_span: &BTreeMap<u64, usize>,
    children: &BTreeMap<u64, Vec<u64>>,
    span: u64,
    depth: usize,
) {
    if depth > 64 {
        return;
    }
    let Some(&idx) = by_span.get(&span) else {
        return;
    };
    let ev = &shard.events[idx];
    println!(
        "{:indent$}{} @{:.1}us",
        "",
        describe(shard, ev),
        us(ev.ts),
        indent = depth * 2
    );
    if let Some(kids) = children.get(&span) {
        for &k in kids {
            print_subtree(shard, by_span, children, k, depth + 1);
        }
    }
}

fn cmd_tree(path: &str) -> Result<ExitCode, String> {
    let shards = parse_trace(path)?;
    for shard in &shards {
        let mut by_span: BTreeMap<u64, usize> = BTreeMap::new();
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for (i, ev) in shard.events.iter().enumerate() {
            by_span.insert(ev.span, i);
            if let Some(p) = ev.parent {
                children.entry(p).or_default().push(ev.span);
            }
        }
        // Children in event-time order (span allocation order tracks it).
        for kids in children.values_mut() {
            kids.sort_by_key(|&s| {
                let ev = &shard.events[by_span[&s]];
                (ev.ts, ev.span)
            });
        }
        // Only parentless faults root a tree: a nested (correlated)
        // fault carries a causal parent and prints indented inside the
        // episode it interrupted.
        let faults: Vec<u64> = shard
            .events
            .iter()
            .filter(|e| e.kind == "fault" && e.parent.is_none())
            .map(|e| e.span)
            .collect();
        if faults.is_empty() {
            continue;
        }
        println!("== {} ==", shard.label);
        for root in faults {
            print_subtree(shard, &by_span, &children, root, 1);
        }
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------

fn mech_summary(eps: &[Episode]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for ep in eps {
        for (m, n) in &ep.mech_counts {
            *out.entry(m.clone()).or_insert(0) += n;
        }
    }
    out
}

fn cmd_diff(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let a = parse_trace(a_path)?;
    let b = parse_trace(b_path)?;
    let mut differing = 0u64;
    let mut compared = 0u64;
    if a.len() != b.len() {
        println!("shard count differs: {} vs {}", a.len(), b.len());
        differing += 1;
    }
    for (i, (sa, sb)) in a.iter().zip(&b).enumerate() {
        if sa.label != sb.label {
            println!("shard {i}: label {:?} vs {:?}", sa.label, sb.label);
        }
        let ea = episodes_of(sa);
        let eb = episodes_of(sb);
        if ea.is_empty() && eb.is_empty() {
            continue;
        }
        let mut header_shown = false;
        let show_header = |shown: &mut bool| {
            if !*shown {
                println!("== {} vs {} ==", sa.label, sb.label);
                *shown = true;
            }
        };
        if ea.len() != eb.len() {
            show_header(&mut header_shown);
            println!("  episode count: {} vs {}", ea.len(), eb.len());
            differing += 1;
        }
        for (k, (pa, pb)) in ea.iter().zip(&eb).enumerate() {
            compared += 1;
            let same = pa.component == pb.component
                && pa.attributed == pb.attributed
                && pa.buckets == pb.buckets
                && pa.mech_counts == pb.mech_counts;
            if same {
                continue;
            }
            differing += 1;
            show_header(&mut header_shown);
            println!(
                "  #{k} {}: attributed {:.1}us vs {:.1}us",
                pa.component,
                us(pa.attributed),
                us(pb.attributed)
            );
            let keys: BTreeSet<&String> = pa.buckets.keys().chain(pb.buckets.keys()).collect();
            for key in keys {
                let (na, da) = pa.buckets.get(key).copied().unwrap_or((0, 0));
                let (nb, db) = pb.buckets.get(key).copied().unwrap_or((0, 0));
                if (na, da) != (nb, db) {
                    println!("      {key}: {na}x{:.1}us vs {nb}x{:.1}us", us(da), us(db));
                }
            }
        }
        // Whole-shard mechanism totals, when they differ.
        let (ma, mb) = (mech_summary(&ea), mech_summary(&eb));
        if ma != mb {
            show_header(&mut header_shown);
            let keys: BTreeSet<&String> = ma.keys().chain(mb.keys()).collect();
            let line: Vec<String> = keys
                .into_iter()
                .filter(|k| ma.get(*k) != mb.get(*k))
                .map(|k| {
                    format!(
                        "{k} {}vs{}",
                        ma.get(k).copied().unwrap_or(0),
                        mb.get(k).copied().unwrap_or(0)
                    )
                })
                .collect();
            println!("  mechanism totals differ: {}", line.join(", "));
        }
    }
    println!();
    if differing == 0 {
        println!("traces are episode-equivalent ({compared} episodes compared)");
    } else {
        println!("{differing} differences across {compared} compared episodes");
    }
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// verify
// ---------------------------------------------------------------------

/// Expand one walk into every concrete replay plan the runtime may
/// legally emit for it: verbatim function names, with the
/// `sm_recover_block` substitution allowed at blocking steps, and — when
/// the interface declares a `*_restore` upcall — the restore function in
/// place of the creation step.
fn expand_walk(spec: &CompiledStubSpec, walk: &[FnId], plans: &mut BTreeSet<Vec<String>>) {
    let opts: Vec<Vec<String>> = walk
        .iter()
        .map(|&fid| {
            let mut o = vec![spec.machine.function_name(fid).to_owned()];
            if spec.machine.roles(fid).blocks {
                if let Some(&g) = spec.recover_block.get(&fid) {
                    o.push(spec.machine.function_name(g).to_owned());
                }
            }
            o
        })
        .collect();
    let mut acc: Vec<Vec<String>> = vec![Vec::new()];
    for o in &opts {
        let mut next = Vec::new();
        for prefix in &acc {
            for choice in o {
                let mut p = prefix.clone();
                p.push(choice.clone());
                next.push(p);
            }
        }
        acc = next;
    }
    for p in acc {
        if let Some((rf, _)) = &spec.restore {
            // Global creator recovery replaces the creation step (walk
            // position 0) with the restore upcall.
            let mut sub = vec![rf.clone()];
            sub.extend(p.iter().skip(1).cloned());
            plans.insert(sub);
        }
        if !p.is_empty() {
            plans.insert(p);
        }
    }
}

/// Every replay plan computable from one interface's compiled spec.
fn plans_for(spec: &CompiledStubSpec) -> Vec<Vec<String>> {
    let mut plans: BTreeSet<Vec<String>> = BTreeSet::new();
    let nf = spec.machine.functions().len();
    let mut walks: BTreeSet<Vec<FnId>> = BTreeSet::new();
    for i in 0..nf {
        let f = FnId(i as u32);
        let target = spec.recover_via.get(&f).copied().unwrap_or(f);
        if let Ok(w) = spec.machine.recovery_walk(State::After(target)) {
            walks.insert(w);
        }
    }
    walks.insert(Vec::new());
    for w in &walks {
        expand_walk(spec, w, &mut plans);
    }
    plans.into_iter().collect()
}

/// Whether `seq` appears as a contiguous slice of `plan`.
fn is_slice_of(seq: &[String], plan: &[String]) -> bool {
    seq.len() <= plan.len() && plan.windows(seq.len()).any(|w| w == seq)
}

/// Longest prefix of `seq` that is a contiguous slice of some plan.
fn longest_explained_prefix(seq: &[String], plans: &[Vec<String>]) -> usize {
    for k in (1..=seq.len()).rev() {
        if plans.iter().any(|p| is_slice_of(&seq[..k], p)) {
            return k;
        }
    }
    0
}

/// An observed replay sequence conforms when it decomposes into
/// contiguous slices of valid plans (a walk may be entered mid-way after
/// a T1 deferral and may stop early at one, so any slice is legal).
fn conforms(seq: &[String], plans: &[Vec<String>]) -> bool {
    let mut rest = seq;
    while !rest.is_empty() {
        let k = longest_explained_prefix(rest, plans);
        if k == 0 {
            return false;
        }
        rest = &rest[k..];
    }
    true
}

fn cmd_verify(path: &str) -> Result<ExitCode, String> {
    let shards = parse_trace(path)?;
    let compiled = superglue::compile_all().map_err(|e| format!("shipped IDL: {e}"))?;
    let mut plans: BTreeMap<String, Vec<Vec<String>>> = compiled
        .iter()
        .map(|(iface, c)| (iface.to_owned(), plans_for(&c.stub_spec)))
        .collect();
    // The pipeline macro-benchmark's two channel components both speak
    // the chan interface under their own kernel component names.
    let chan_plans = plans_for(&sg_pipeline::compile_chan().stub_spec);
    plans.insert("chan_ab".to_owned(), chan_plans.clone());
    plans.insert("chan_bc".to_owned(), chan_plans);

    let mut checked = 0u64;
    let mut skipped_untagged = 0u64;
    let mut skipped_foreign = 0u64;
    let mut violations = 0u64;
    for shard in &shards {
        for (ei, ep) in episodes_of(shard).iter().enumerate() {
            // Group the episode's walk steps by descriptor, preserving
            // replay order. C³'s hand-written stubs do not expose
            // descriptor ids on walk steps (desc null) — those are
            // counted but cannot be checked against a per-descriptor
            // plan.
            let mut groups: BTreeMap<i64, Vec<String>> = BTreeMap::new();
            for (desc, _mech, function) in &ep.walk_steps {
                match desc {
                    Some(d) => groups.entry(*d).or_default().push(function.clone()),
                    None => skipped_untagged += 1,
                }
            }
            for (desc, seq) in &groups {
                let Some(iface_plans) = plans.get(&ep.component) else {
                    skipped_foreign += 1;
                    continue;
                };
                checked += 1;
                if !conforms(seq, iface_plans) {
                    violations += 1;
                    println!(
                        "VIOLATION {}: episode #{ei} ({}) desc {desc}: observed replay {:?} \
                         is not explainable by any IDL-computable plan",
                        shard.label, ep.component, seq
                    );
                    for p in iface_plans {
                        println!("    valid plan: {p:?}");
                    }
                }
            }
        }
    }
    println!();
    println!(
        "{checked} per-descriptor replay sequences checked against IDL plans \
         ({skipped_untagged} untagged C3 steps and {skipped_foreign} foreign-interface \
         groups skipped)"
    );
    if violations == 0 {
        println!("all observed recovery walks conform to the IDL replay plans");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("{violations} non-conforming replay sequences");
        Ok(ExitCode::FAILURE)
    }
}

// ---------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------

/// Load the core-event sequence of a `modelcheck` artifact (an object
/// with an `"events"` array) or a bare JSON-lines event log.
fn load_events(path: &str) -> Result<Vec<composite::Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let decode = |j: &Json, at: String| event_from_json(j).map_err(|e| format!("{at}: {e}"));
    if let Ok(j) = Json::parse(&text) {
        if let Some(evs) = j.get("events").and_then(Json::as_array) {
            if j.get("model").and_then(Json::as_str) == Some("system") {
                return Err(
                    "this is a system-layer counterexample (testbed operations, not core \
                     events); replay applies to core-layer artifacts"
                        .to_owned(),
                );
            }
            return evs
                .iter()
                .enumerate()
                .map(|(i, e)| decode(e, format!("{path}: events[{i}]")))
                .collect();
        }
    }
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(n, l)| {
            let j = Json::parse(l).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
            decode(&j, format!("{path}:{}", n + 1))
        })
        .collect()
}

fn print_state(state: &composite::KernelState) {
    println!("  time {}ns", state.time.0);
    for (i, m) in state.components.iter().enumerate() {
        let mut flags = Vec::new();
        if m.state != composite::kernel::ComponentState::Active {
            flags.push("FAULTY".to_owned());
        }
        if let Some(until) = state.degraded_until(composite::ComponentId(i as u32)) {
            flags.push(format!(
                "degraded until {}ns{}",
                until.0,
                if state.time < until { "" } else { " (elapsed)" }
            ));
        }
        if let Some(hist) = state.reboot_history.get(&(i as u32)) {
            if !hist.is_empty() {
                flags.push(format!("{} reboots in window", hist.len()));
            }
        }
        println!(
            "  comp {i}: epoch {} {}{}",
            m.epoch.0,
            if m.has_service { "service" } else { "client" },
            flags.iter().map(|f| format!("  [{f}]")).collect::<String>()
        );
    }
    for t in state.threads.iter() {
        let st = match t.state {
            ThreadState::Runnable => "runnable".to_owned(),
            ThreadState::Blocked { in_component } => {
                format!("BLOCKED in comp {}", in_component.0)
            }
            ThreadState::SleepingUntil(d) => format!("sleeping until {}ns", d.0),
            other => format!("{other:?}"),
        };
        let stack: Vec<u32> = t.invocation_stack.iter().map(|c| c.0).collect();
        println!(
            "  thread {}: {st}, home comp {}, stack {stack:?}",
            t.id.0, t.home.0
        );
    }
    if !state.active_recoveries.is_empty() {
        let stack: Vec<u32> = state.active_recoveries.iter().map(|c| c.0).collect();
        println!("  open recovery actions (innermost last): {stack:?}");
    }
    if let Some(v) = state.armed_recovery_fault {
        println!("  armed during-recovery fault on comp {}", v.0);
    }
}

fn cmd_replay(path: &str, to: Option<u64>) -> Result<ExitCode, String> {
    let events = load_events(path)?;
    if events.is_empty() {
        return Err(format!("{path}: no events to replay"));
    }
    // The artifact records the walk's generated events; the fixed model
    // topology they ran against comes from a fresh KernelWalk.
    let mut walk = KernelWalk::new();
    walk.reset();
    // One O(1) snapshot per event: `KernelState` tables are Arc-shared,
    // so keeping every intermediate state costs refcount bumps plus only
    // the copy-on-write deltas each step actually touched.
    let mut snapshots = vec![walk.state.clone()];
    let mut replies = Vec::new();
    for ev in &events {
        let (next, fx) = step(snapshots.last().expect("seeded"), ev);
        snapshots.push(next);
        replies.push(fx.reply);
    }
    let last = events.len() as u64 - 1;
    let target = to.unwrap_or(last);
    if target > last {
        return Err(format!("--to {target}: artifact has spans 0..={last}"));
    }
    let idx = target as usize;
    println!(
        "replayed {} events through the pure core ({} snapshots retained)",
        events.len(),
        snapshots.len()
    );
    println!();
    for (i, ev) in events.iter().enumerate().take(idx + 1) {
        let marker = if i == idx { ">" } else { " " };
        println!("{marker} [{i:>3}] {:?} -> {:?}", ev, replies[i]);
    }
    println!();
    println!("state after span {target}:");
    print_state(&snapshots[idx + 1]);
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------

const USAGE: &str = "usage: sgtrace <timeline|tree|verify> TRACE.jsonl \
                     | sgtrace diff A.jsonl B.jsonl \
                     | sgtrace replay ARTIFACT.json [--to SPAN]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("timeline") if args.len() == 2 => cmd_timeline(&args[1]),
        Some("tree") if args.len() == 2 => cmd_tree(&args[1]),
        Some("diff") if args.len() == 3 => cmd_diff(&args[1], &args[2]),
        Some("verify") if args.len() == 2 => cmd_verify(&args[1]),
        Some("replay") if args.len() == 2 => cmd_replay(&args[1], None),
        Some("replay") if args.len() == 4 && args[2] == "--to" => match args[3].parse() {
            Ok(n) => cmd_replay(&args[1], Some(n)),
            Err(e) => Err(format!("--to {:?}: {e}", args[3])),
        },
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sgtrace: {e}");
            ExitCode::FAILURE
        }
    }
}
