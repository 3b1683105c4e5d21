//! Interprocedural analyses over the project call graph.
//!
//! Four analyses run here (DESIGN.md §3g):
//!
//! * **lock-rank / lock-rank-chain** — held-guard sets are tracked through
//!   each function (with `if let`/destructuring/`drop(..)`/`for`-header
//!   binding forms) and *propagated through call edges*: acquiring a
//!   ranked lock below the highest held rank is an inversion whether it
//!   happens in the same body (`lock-rank`) or anywhere in a callee's
//!   transitive acquisition set (`lock-rank-chain`).
//! * **lock-order-cycle** — independent of the hand-maintained rank
//!   tables, every *observed* acquisition pair (B taken while A held,
//!   directly or through a call) becomes an edge A→B in an empirical
//!   per-crate lock-order graph; any cycle fails the lint. This validates
//!   the rank tables instead of trusting them.
//! * **hot-path-alloc-transitive** — the zero-allocation promise of the
//!   GEMM kernels and the reactor/codec `poll_*` functions extends to
//!   their transitive intra-crate callees.
//! * **blocking-in-reactor** — no unbounded blocking call (`Condvar::wait`
//!   sans timeout, `sleep`, `join`, blocking `recv`, `park`, connect)
//!   reachable from the net reactor's poll thread.
//! * **panic-reachability** — `unwrap`/`expect`/`panic!` reachable from
//!   engine-kernel worker entry points, the scoring body they share
//!   (`crayfish-core`), broker RPC handlers, or the
//!   multi-process binaries (this replaces the old prefix-list scoped
//!   `unwrap-in-pipeline` rule with actual reachability).
//!
//! Findings carry a *fingerprint* — `rule` + the qualified call chain —
//! so the ratchet baseline survives line churn.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::callgraph::{self, CallGraph};
use crate::items::{self, FnItem};
use crate::rules::{find_all, Violation};
use crate::source::SourceFile;

pub const LOCK_RANK: &str = "lock-rank";
pub const LOCK_RANK_CHAIN: &str = "lock-rank-chain";
pub const LOCK_ORDER_CYCLE: &str = "lock-order-cycle";
pub const HOT_PATH_ALLOC_TRANSITIVE: &str = "hot-path-alloc-transitive";
pub const BLOCKING_IN_REACTOR: &str = "blocking-in-reactor";
pub const PANIC_REACHABILITY: &str = "panic-reachability";

/// Lock-rank table. Rank = acquisition order: a lock may only be taken
/// while every held lock has a *smaller* rank (outermost first). Broker:
/// node append gate (3) → node leader state (5) → cluster client leader
/// index (8) → topic registry (10) → group coordinator (15) → committed
/// offsets (20) → replicated partition state (30) → topic version (40).
/// Net: TCP connection slot (5) → reactor injector (10) → ready queue
/// (15) → connection registry (20) → waker signal (30). Flink exchange:
/// channel state (10).
pub fn lock_rank_of(crate_name: &str, receiver: &str) -> Option<(u32, &'static str)> {
    match crate_name {
        "broker" => match receiver {
            "append_gate" => Some((3, "node append gate")),
            "state" => Some((5, "node leader state")),
            "leader" => Some((8, "cluster client leader index")),
            "topics" => Some((10, "broker topic registry")),
            "groups" => Some((15, "consumer group coordinator")),
            "offsets" => Some((20, "committed consumer offsets")),
            "repl" => Some((30, "replicated partition state")),
            "version" => Some((40, "topic version")),
            _ => None,
        },
        "net" => match receiver {
            "conn" => Some((5, "TCP connection slot")),
            "injector" => Some((10, "reactor injector")),
            "ready" => Some((15, "reactor ready queue")),
            "registry" | "connections" => Some((20, "connection registry")),
            "signal" => Some((30, "waker signal")),
            _ => None,
        },
        "flink" => match receiver {
            "state" => Some((10, "exchange channel state")),
            _ => None,
        },
        _ => None,
    }
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Walk back from a `.lock()`-style call's dot and return the dotted
/// receiver chain, skipping index/call bracket groups and a leading
/// `self.`: `self.inner.state[i].lock()` → `inner.state`.
pub fn receiver_chain_of(clean: &str, dot: usize) -> Option<String> {
    let bytes = clean.as_bytes();
    let mut segments: Vec<&str> = Vec::new();
    let mut i = dot;
    while i > 0 {
        let c = bytes[i - 1];
        if c == b')' {
            // A call: the chain roots at the call's result, e.g.
            // `partition(p).repl` is just `repl`.
            break;
        }
        if c == b']' {
            let mut depth = 0usize;
            while i > 0 {
                let d = bytes[i - 1];
                i -= 1;
                if d == b']' {
                    depth += 1;
                } else if d == b'[' {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
            }
        } else if is_ident(c) {
            let end = i;
            while i > 0 && is_ident(bytes[i - 1]) {
                i -= 1;
            }
            segments.push(&clean[i..end]);
        } else if c == b'.' {
            i -= 1;
        } else {
            break;
        }
    }
    segments.reverse();
    if let Some(&"self") = segments.first() {
        segments.remove(0);
    }
    if segments.is_empty() {
        None
    } else {
        Some(segments.join("."))
    }
}

/// Nearest identifier of the receiver chain (`partitions` for
/// `self.partitions[p].lock()`) — the rank-table key.
#[cfg(test)]
pub fn receiver_of(clean: &str, dot: usize) -> Option<String> {
    receiver_chain_of(clean, dot).map(|c| c.rsplit('.').next().unwrap_or("").to_string())
}

/// The `let` pattern binding a guard acquired at `pos`, handling plain
/// `let g =`, `let mut g =`, `if let Ok(g) =`, `while let Some(g) =`,
/// `let Ok(g) = .. else`, and positional tuple destructuring
/// (`let (a, b) = (x.lock(), y.lock())` binds `a` then `b`).
pub fn let_binding_before(body: &str, pos: usize) -> Option<String> {
    let stmt_start = body[..pos].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let stmt = &body[stmt_start..pos];
    let let_at = find_keyword(stmt, "let ")?;
    let after_let = &stmt[let_at + 4..];
    let eq = after_let.find('=')?;
    let pattern = &after_let[..eq];
    // Idents bound by the pattern: skip `mut`/`ref`/`_` and constructor
    // names (capitalized: `Ok`, `Some`, struct names).
    let names: Vec<&str> = pattern
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|s| !s.is_empty())
        .filter(|s| !matches!(*s, "mut" | "ref" | "_"))
        .filter(|s| !s.chars().next().is_some_and(char::is_uppercase))
        .collect();
    if names.is_empty() {
        return None;
    }
    // Positional match for destructuring: which acquisition inside the
    // statement's RHS is this one?
    let rhs_abs = stmt_start + let_at + 4 + eq + 1;
    let idx = ["\u{0}.lock()", ".lock()", ".read()", ".write()"]
        .iter()
        .skip(1)
        .map(|n| find_all(&body[rhs_abs..pos], n).len())
        .sum::<usize>();
    Some(names[idx.min(names.len() - 1)].to_string())
}

/// First occurrence of keyword `kw` in `s` at a word boundary.
fn find_keyword(s: &str, kw: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut search = 0;
    while let Some(found) = s[search..].find(kw) {
        let pos = search + found;
        search = pos + 1;
        if pos == 0 || !is_ident(bytes[pos - 1]) {
            return Some(pos);
        }
    }
    None
}

/// If the statement containing `pos` is an `if`/`while`/`for` header, the
/// guard acquired at `pos` lives until the end of the following block —
/// return that close-brace offset. Unbound guards in plain statements are
/// temporaries living to the statement's `;`.
fn scope_end_for(body: &str, pos: usize, has_binding: bool) -> Option<usize> {
    let stmt_start = body[..pos].rfind([';', '{', '}']).map_or(0, |p| p + 1);
    let stmt = body[stmt_start..pos].trim_start();
    let header = ["if ", "if(", "while ", "while(", "for "]
        .iter()
        .any(|k| stmt.starts_with(k));
    if header {
        let open_rel = body[pos..].find('{')?;
        let open = pos + open_rel;
        return crate::source::matching(body.as_bytes(), open, b'{', b'}');
    }
    if has_binding {
        // A `let`-bound guard dies at the close of its enclosing block:
        // `let epoch = { let st = self.state.lock(); st.epoch };` releases
        // `st` before the next statement.
        return enclosing_block_end(body, pos);
    }
    // Temporary guard: released at the end of the statement.
    body[pos..].find(';').map(|s| pos + s)
}

/// Close-brace offset of the innermost block containing `pos`. The body
/// slice includes the fn's own braces, so a top-level statement maps to
/// the end of the fn.
fn enclosing_block_end(body: &str, pos: usize) -> Option<usize> {
    let bytes = body.as_bytes();
    let mut stack: Vec<usize> = Vec::new();
    for (i, &b) in bytes.iter().enumerate().take(pos) {
        match b {
            b'{' => stack.push(i),
            b'}' => {
                stack.pop();
            }
            _ => {}
        }
    }
    let open = stack.pop()?;
    crate::source::matching(bytes, open, b'{', b'}')
}

/// One lock acquisition site.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Offset of the needle (`.lock()` dot) within the fn body slice.
    pub pos: usize,
    /// Dotted receiver chain (node identity in the empirical graph).
    pub chain: String,
    /// Last chain segment (rank-table key).
    pub last: String,
    pub rank: Option<(u32, &'static str)>,
    pub binding: Option<String>,
    /// Offset past which the guard is certainly released, if known.
    pub scope_end: Option<usize>,
}

enum Ev {
    Acquire(Acquire),
    Drop { pos: usize, arg: String },
    Call { pos: usize, site: usize },
}

/// Ordered lock/drop/call events of one fn body.
fn events_of(graph: &CallGraph, fn_id: usize, clean: &str) -> Vec<Ev> {
    let f = &graph.fns[fn_id];
    let (open, close) = f.body;
    let body = &clean[open..=close];
    let mut events: Vec<Ev> = Vec::new();
    for needle in [".lock()", ".read()", ".write()"] {
        for pos in find_all(body, needle) {
            let Some(chain) = receiver_chain_of(body, pos) else {
                continue;
            };
            let last = chain.rsplit('.').next().unwrap_or("").to_string();
            let rank = lock_rank_of(&f.crate_name, &last);
            let binding = let_binding_before(body, pos);
            let scope_end = scope_end_for(body, pos, binding.is_some());
            events.push(Ev::Acquire(Acquire {
                pos,
                chain,
                last,
                rank,
                binding,
                scope_end,
            }));
        }
    }
    for pos in find_all(body, "drop(") {
        // Skip `.drop(`, `x_drop(`, and our own needle inside idents.
        if pos > 0 {
            let prev = body.as_bytes()[pos - 1];
            if is_ident(prev) || prev == b'.' {
                continue;
            }
        }
        let args_start = pos + "drop(".len();
        let arg: String = body[args_start..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '.' || *c == ':')
            .collect();
        events.push(Ev::Drop { pos, arg });
    }
    for (site, cs) in graph.calls[fn_id].iter().enumerate() {
        events.push(Ev::Call {
            pos: cs.pos - open,
            site,
        });
    }
    events.sort_by_key(|e| match e {
        Ev::Acquire(a) => a.pos,
        Ev::Drop { pos, .. } | Ev::Call { pos, .. } => *pos,
    });
    events
}

/// A lock identity in the empirical order graph: `(crate, receiver chain)`.
pub type LockKey = (String, String);

/// One observed ordered acquisition pair, with a sample context.
#[derive(Debug, Clone)]
pub struct OrderEdge {
    pub from: LockKey,
    pub to: LockKey,
    /// Qualified fn where the pair was observed.
    pub observed_in: String,
    pub rel: String,
    pub line: usize,
}

/// Everything the lock analyses produce.
pub struct LockReport {
    pub violations: Vec<Violation>,
    pub edges: Vec<OrderEdge>,
}

/// One entry in the interned lock-site universe: a lock identity plus the
/// fn performing the acquisition (for chain reporting).
#[derive(Debug)]
struct LockSite {
    chain: String,
    last: String,
    rank: Option<u32>,
    owner: usize,
}

/// Transitive acquisition summaries: for every fn, the set of lock sites
/// it or any intra-crate callee acquires. Sites are interned to small ids
/// so the fixpoint unions integers, not string tuples — the universe is
/// bounded by the number of textual acquisitions in the repo.
fn transitive_acquires(
    graph: &CallGraph,
    direct: &[Vec<Acquire>],
) -> (Vec<LockSite>, Vec<BTreeSet<u32>>) {
    let n = graph.fns.len();
    let mut universe: Vec<LockSite> = Vec::new();
    let mut ids: HashMap<(String, usize), u32> = HashMap::new();
    let mut trans: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for (i, acquires) in direct.iter().enumerate() {
        for a in acquires {
            let id = *ids.entry((a.chain.clone(), i)).or_insert_with(|| {
                universe.push(LockSite {
                    chain: a.chain.clone(),
                    last: a.last.clone(),
                    rank: a.rank.map(|(r, _)| r),
                    owner: i,
                });
                (universe.len() - 1) as u32
            });
            trans[i].insert(id);
        }
    }
    // Fixpoint propagation; monotone over a finite universe, so this
    // terminates, and in practice converges in call-graph-depth passes.
    loop {
        let mut changed = false;
        for i in 0..n {
            let mut add: BTreeSet<u32> = BTreeSet::new();
            for site in &graph.calls[i] {
                for &t in graph.targets(site) {
                    if t != i {
                        add.extend(trans[t].difference(&trans[i]));
                    }
                }
            }
            if !add.is_empty() {
                trans[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            return (universe, trans);
        }
    }
}

/// Run the whole-program lock analyses: intra-fn rank inversions,
/// call-chain rank inversions, and the empirical order graph.
pub fn lock_analysis(graph: &CallGraph, texts: &HashMap<String, String>) -> LockReport {
    let n = graph.fns.len();
    let mut direct: Vec<Vec<Acquire>> = vec![Vec::new(); n];
    let mut all_events: Vec<Vec<Ev>> = Vec::with_capacity(n);
    for i in 0..n {
        let clean = &texts[&graph.fns[i].rel];
        let events = events_of(graph, i, clean);
        direct[i] = events
            .iter()
            .filter_map(|e| match e {
                Ev::Acquire(a) => Some(a.clone()),
                _ => None,
            })
            .collect();
        all_events.push(events);
    }
    trace("events extracted");
    let (universe, trans) = transitive_acquires(graph, &direct);
    trace(&format!("fixpoint done: {} lock sites", universe.len()));

    let mut violations = Vec::new();
    let mut edges: BTreeMap<(LockKey, LockKey), OrderEdge> = BTreeMap::new();
    for (i, f) in graph.fns.iter().enumerate().take(n) {
        let file_rel = f.rel.clone();
        let clean = &texts[&file_rel];
        let body_open = f.body.0;
        let line_of = |pos: usize| -> usize {
            clean.as_bytes()[..(body_open + pos).min(clean.len())]
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                + 1
        };
        // Held guards, in acquisition order.
        let mut held: Vec<Acquire> = Vec::new();
        for ev in &all_events[i] {
            let at = match ev {
                Ev::Acquire(a) => a.pos,
                Ev::Drop { pos, .. } | Ev::Call { pos, .. } => *pos,
            };
            held.retain(|h| h.scope_end.map_or(true, |end| at <= end));
            match ev {
                Ev::Drop { arg, .. } => {
                    let arg_last = arg.rsplit(['.', ':']).next().unwrap_or(arg);
                    held.retain(|h| {
                        h.binding.as_deref() != Some(arg) && h.binding.as_deref() != Some(arg_last)
                    });
                }
                Ev::Acquire(a) => {
                    // Empirical order edges (self-edges skipped: multiple
                    // instances of one lock class — replica fan-out — are
                    // same-rank by design and handled by the rank rule).
                    for h in &held {
                        if h.chain != a.chain {
                            let from = (f.crate_name.clone(), h.chain.clone());
                            let to = (f.crate_name.clone(), a.chain.clone());
                            edges
                                .entry((from.clone(), to.clone()))
                                .or_insert(OrderEdge {
                                    from,
                                    to,
                                    observed_in: f.qualified(),
                                    rel: file_rel.clone(),
                                    line: line_of(a.pos),
                                });
                        }
                    }
                    if let (Some((rank, label)), Some(h)) = (
                        a.rank,
                        held.iter()
                            .filter(|h| h.rank.is_some_and(|(r, _)| r > a.rank.map_or(0, |x| x.0)))
                            .max_by_key(|h| h.rank.map_or(0, |x| x.0)),
                    ) {
                        let (hr, hl) = h.rank.unwrap_or((0, "?"));
                        violations.push(Violation {
                            rule: LOCK_RANK,
                            rel: file_rel.clone(),
                            line: line_of(a.pos),
                            fingerprint: format!("{}@{}>{}", f.qualified(), h.chain, a.chain),
                            msg: format!(
                                "acquires {label} (rank {rank}) while holding {hl} (rank {hr}); \
                                 acquisition order is rank-ascending"
                            ),
                        });
                    }
                    if a.binding.is_some() || a.scope_end.is_some() {
                        held.push(a.clone());
                    }
                }
                Ev::Call { pos, site } => {
                    if held.is_empty() {
                        continue;
                    }
                    let cs = &graph.calls[i][*site];
                    for &t in graph.targets(cs) {
                        if t == i {
                            continue;
                        }
                        for &site_id in &trans[t] {
                            let s = &universe[site_id as usize];
                            if held.iter().any(|h| h.chain == s.chain) {
                                continue;
                            }
                            for h in &held {
                                let from = (f.crate_name.clone(), h.chain.clone());
                                let to = (graph.fns[s.owner].crate_name.clone(), s.chain.clone());
                                if from == to {
                                    continue;
                                }
                                edges
                                    .entry((from.clone(), to.clone()))
                                    .or_insert(OrderEdge {
                                        from,
                                        to,
                                        observed_in: f.qualified(),
                                        rel: file_rel.clone(),
                                        line: line_of(*pos),
                                    });
                            }
                            let Some(acq_rank) = s.rank else { continue };
                            let worst = held
                                .iter()
                                .filter(|h| h.rank.is_some_and(|(r, _)| r > acq_rank))
                                .max_by_key(|h| h.rank.map_or(0, |x| x.0));
                            if let Some(h) = worst {
                                let (hr, hl) = h.rank.unwrap_or((0, "?"));
                                let sub = graph.reach(&[t]);
                                let chain_q =
                                    format!("{}->{}", f.qualified(), graph.chain(&sub, s.owner));
                                let label = lock_rank_of(&graph.fns[s.owner].crate_name, &s.last)
                                    .map_or("?", |(_, l)| l);
                                violations.push(Violation {
                                    rule: LOCK_RANK_CHAIN,
                                    rel: file_rel.clone(),
                                    line: line_of(*pos),
                                    fingerprint: format!(
                                        "{chain_q}@{hl}>{chain}",
                                        hl = h.chain,
                                        chain = s.chain
                                    ),
                                    msg: format!(
                                        "calls {callee} while holding {hl} (rank {hr}); the \
                                         callee transitively acquires {label} (rank {acq_rank}) \
                                         via {chain_q}",
                                        callee = graph.fns[t].qualified(),
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    // Cycle detection over the empirical graph, per crate.
    let edge_list: Vec<OrderEdge> = edges.into_values().collect();
    violations.extend(order_cycles(&edge_list));
    LockReport {
        violations,
        edges: edge_list,
    }
}

/// DFS cycle detection over the empirical lock-order edges.
fn order_cycles(edges: &[OrderEdge]) -> Vec<Violation> {
    let mut adj: BTreeMap<&LockKey, Vec<&OrderEdge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(e);
    }
    let mut color: BTreeMap<&LockKey, u8> = BTreeMap::new(); // 0 white 1 grey 2 black
    let mut out = Vec::new();
    let keys: Vec<&LockKey> = adj.keys().copied().collect();
    for &start in &keys {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // Iterative DFS with an explicit path stack.
        let mut stack: Vec<(&LockKey, usize)> = vec![(start, 0)];
        color.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succ = adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]);
            if *next >= succ.len() {
                color.insert(node, 2);
                stack.pop();
                continue;
            }
            let edge = succ[*next];
            *next += 1;
            match color.get(&edge.to).copied().unwrap_or(0) {
                0 => {
                    color.insert(&edge.to, 1);
                    stack.push((&edge.to, 0));
                }
                1 => {
                    // Back edge: the path from `edge.to` on the stack to
                    // `node`, plus this edge, is a cycle.
                    let from_idx = stack.iter().position(|(k, _)| *k == &edge.to).unwrap_or(0);
                    let cycle: Vec<String> = stack[from_idx..]
                        .iter()
                        .map(|(k, _)| k.1.clone())
                        .chain(std::iter::once(edge.to.1.clone()))
                        .collect();
                    out.push(Violation {
                        rule: LOCK_ORDER_CYCLE,
                        rel: edge.rel.clone(),
                        line: edge.line,
                        fingerprint: format!("cycle:{}:{}", edge.to.0, cycle.join(">")),
                        msg: format!(
                            "empirical lock-order cycle in crate {}: {} (last edge observed in \
                             {}); no consistent acquisition order exists",
                            edge.to.0,
                            cycle.join(" -> "),
                            edge.observed_in
                        ),
                    });
                }
                _ => {}
            }
        }
    }
    out
}

/// A reachability analysis: entry predicate + sink tokens.
struct ReachRule {
    rule: &'static str,
    /// Include sinks in the entry fns' own bodies? (The direct hot-path
    /// rule already covers entry bodies; the others want depth 0 too.)
    include_entries: bool,
    entries: fn(&FnItem) -> bool,
    tokens: &'static [(&'static str, &'static str)], // (needle, slug)
    advice: &'static str,
}

fn hot_path_entry(f: &FnItem) -> bool {
    f.rel.starts_with("crates/tensor/src/kernels/")
        || ((f.rel == "crates/net/src/reactor.rs" || f.rel == "crates/net/src/codec.rs")
            && f.name.starts_with("poll_"))
}

fn reactor_entry(f: &FnItem) -> bool {
    f.crate_name == "net" && f.name == "run_reactor"
}

fn panic_entry(f: &FnItem) -> bool {
    match f.crate_name.as_str() {
        "engine-kernel" => {
            (f.owner.as_deref() == Some("PipelineWorker") && f.name == "run")
                || f.name == "source_pump"
                || f.name == "pipeline_workers"
                || (f.owner.as_deref() == Some("WorkerSet")
                    && matches!(f.name.as_str(), "supervised" | "task"))
        }
        "broker" => matches!(
            f.name.as_str(),
            "dispatch" | "handle_frame" | "handle" | "serve"
        ),
        // Calls resolve within a crate, so the scoring body every worker
        // above funnels into is an entry of its own.
        "core" => f.name == "score_payload_obs",
        "crayfish" => f.rel.starts_with("src/bin/") && f.name == "main",
        _ => false,
    }
}

const REACH_RULES: &[ReachRule] = &[
    ReachRule {
        rule: HOT_PATH_ALLOC_TRANSITIVE,
        include_entries: false,
        entries: hot_path_entry,
        tokens: &[
            ("Vec::new", "Vec::new"),
            ("vec![", "vec!"),
            (".to_vec(", "to_vec"),
            (".collect(", "collect"),
        ],
        advice: "the zero-allocation promise extends through transitive callees; \
                 use an `_into` variant or a reusable scratch",
    },
    ReachRule {
        rule: BLOCKING_IN_REACTOR,
        include_entries: true,
        entries: reactor_entry,
        tokens: &[
            ("::sleep(", "sleep"),
            (".join()", "join"),
            (".recv()", "recv"),
            (".wait(", "condvar-wait"),
            ("park(", "park"),
            ("TcpStream::connect", "connect"),
            (".read_to_end(", "read_to_end"),
            (".read_exact(", "read_exact"),
        ],
        advice: "the reactor poll thread may never block unboundedly; \
                 bounded waits (`wait_timeout`) and nonblocking I/O only",
    },
    ReachRule {
        rule: PANIC_REACHABILITY,
        include_entries: true,
        entries: panic_entry,
        tokens: &[
            (".unwrap()", "unwrap"),
            (".expect(", "expect"),
            ("panic!(", "panic"),
            ("todo!(", "todo"),
            ("unimplemented!(", "unimplemented"),
        ],
        advice: "a panic here kills a supervised worker or an RPC handler and \
                 corrupts fault-tolerance measurements; propagate the error",
    },
];

/// Run the three reachability analyses.
pub fn reachability(graph: &CallGraph, texts: &HashMap<String, String>) -> Vec<Violation> {
    let mut out = Vec::new();
    for rr in REACH_RULES {
        let entries = graph.find(|f| (rr.entries)(f));
        if entries.is_empty() {
            continue;
        }
        let parents = graph.reach(&entries);
        let mut reached: Vec<usize> = parents.keys().copied().collect();
        reached.sort_unstable();
        for id in reached {
            let f = &graph.fns[id];
            if !rr.include_entries && (rr.entries)(f) {
                continue;
            }
            let clean = &texts[&f.rel];
            let (open, close) = f.body;
            let body = &clean[open..=close];
            let chain = graph.chain(&parents, id);
            for (needle, slug) in rr.tokens {
                for pos in find_all(body, needle) {
                    let line = clean.as_bytes()[..open + pos]
                        .iter()
                        .filter(|&&b| b == b'\n')
                        .count()
                        + 1;
                    out.push(Violation {
                        rule: rr.rule,
                        rel: f.rel.clone(),
                        line,
                        fingerprint: format!("{chain}@{slug}"),
                        msg: format!(
                            "{slug} in {q}, reachable via {chain}; {advice}",
                            q = f.qualified(),
                            advice = rr.advice
                        ),
                    });
                }
            }
        }
    }
    out
}

/// The assembled project: parsed items, call graph, cleaned texts.
pub struct Project {
    pub graph: CallGraph,
    pub texts: HashMap<String, String>,
    pub lock_edges: Vec<OrderEdge>,
}

fn trace(msg: &str) {
    if std::env::var_os("CRAYFISH_LINT_TRACE").is_some() {
        eprintln!("crayfish-lint[trace]: {msg}");
    }
}

/// Build the project model and run every interprocedural analysis.
pub fn analyze(files: &[SourceFile]) -> (Project, Vec<Violation>) {
    let mut fns = Vec::new();
    let mut texts = HashMap::new();
    for f in files {
        trace(&format!("parsing {}", f.rel));
        fns.extend(items::file_fns(f));
        texts.insert(f.rel.clone(), f.clean.clone());
    }
    trace(&format!("{} fns parsed", fns.len()));
    let graph = callgraph::build(fns, &texts);
    trace(&format!(
        "graph built: {} resolved, {} ambiguous, {} unresolved",
        graph.resolved_edges, graph.ambiguous_edges, graph.unresolved_edges
    ));
    let mut violations = Vec::new();
    let report = lock_analysis(&graph, &texts);
    trace(&format!(
        "lock analysis done: {} violations, {} edges",
        report.violations.len(),
        report.edges.len()
    ));
    violations.extend(report.violations);
    violations.extend(reachability(&graph, &texts));
    trace("reachability done");
    (
        Project {
            graph,
            texts,
            lock_edges: report.edges,
        },
        violations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<Violation> {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(rel, code)| SourceFile::synthetic(rel, code))
            .collect();
        analyze(&sources).1
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        let mut r: Vec<&'static str> = v.iter().map(|x| x.rule).collect();
        r.sort_unstable();
        r
    }

    #[test]
    fn receiver_chain_walks_fields_and_brackets() {
        let s = "self.inner.state[i].lock()";
        let dot = s.rfind(".lock").unwrap();
        assert_eq!(receiver_chain_of(s, dot).as_deref(), Some("inner.state"));
        assert_eq!(receiver_of(s, dot).as_deref(), Some("state"));
        let s2 = "shared.completions.ready.lock()";
        let dot2 = s2.rfind(".lock").unwrap();
        assert_eq!(
            receiver_chain_of(s2, dot2).as_deref(),
            Some("shared.completions.ready")
        );
        let s3 = "partition(p).repl.lock()";
        let dot3 = s3.rfind(".lock").unwrap();
        assert_eq!(receiver_chain_of(s3, dot3).as_deref(), Some("repl"));
    }

    #[test]
    fn let_binding_handles_if_let_and_destructuring() {
        let b = "{ if let Ok(g) = self.topics.lock() { g.len(); } }";
        let pos = b.find(".lock").unwrap();
        assert_eq!(let_binding_before(b, pos).as_deref(), Some("g"));

        let b2 = "{ let (a, b) = (x.lock(), y.lock()); }";
        let first = b2.find(".lock").unwrap();
        let second = b2.rfind(".lock").unwrap();
        assert_eq!(let_binding_before(b2, first).as_deref(), Some("a"));
        assert_eq!(let_binding_before(b2, second).as_deref(), Some("b"));

        let b3 = "{ let Some(mut guard) = self.repl.try_lock() else { return }; guard.x(); \
                   let h = self.version.lock(); }";
        let pos3 = b3.rfind(".lock").unwrap();
        assert_eq!(let_binding_before(b3, pos3).as_deref(), Some("h"));

        let b4 = "{ foo(); self.topics.lock().insert(k, v); }";
        let pos4 = b4.find(".lock").unwrap();
        assert_eq!(let_binding_before(b4, pos4), None);
    }

    #[test]
    fn intra_fn_inversion_still_caught() {
        let v = run(&[(
            "crates/broker/src/seeded.rs",
            "struct B; impl B { fn f(&self) { let v = self.version.lock(); \
             let t = self.topics.read(); } }",
        )]);
        assert!(rules_of(&v).contains(&LOCK_RANK), "{v:?}");
    }

    #[test]
    fn if_let_bound_guard_is_tracked() {
        // The old binding parser missed `if let Ok(g) = ..`, so this
        // inversion went unseen.
        let v = run(&[(
            "crates/broker/src/seeded.rs",
            "struct B; impl B { fn f(&self) { if let Some(v) = self.version.lock().as_ref() { \
             let t = self.topics.read(); } } }",
        )]);
        assert!(rules_of(&v).contains(&LOCK_RANK), "{v:?}");
    }

    #[test]
    fn destructured_guards_are_tracked() {
        let v = run(&[(
            "crates/broker/src/seeded.rs",
            "struct B; impl B { fn f(&self) { let (v, x) = (self.version.lock(), 0); \
             let t = self.topics.read(); } }",
        )]);
        assert!(rules_of(&v).contains(&LOCK_RANK), "{v:?}");
    }

    #[test]
    fn dotted_drop_releases_the_guard() {
        let v = run(&[(
            "crates/broker/src/seeded.rs",
            "struct B; impl B { fn f(&self, s: &mut S) { s.g = Some(self.version.lock()); \
             let g = self.version.lock(); std::mem::drop(g); let t = self.topics.read(); } }",
        )]);
        // Guard g dropped via std::mem::drop path → no inversion from it.
        // The unbound store into s.g is a temporary (ends at `;`).
        assert!(!rules_of(&v).contains(&LOCK_RANK), "{v:?}");
    }

    #[test]
    fn interprocedural_inversion_via_helper() {
        let v = run(&[(
            "crates/broker/src/seeded.rs",
            "struct B; impl B { \
             fn f(&self) { let v = self.version.lock(); self.helper(); } \
             fn helper(&self) { let t = self.topics.read(); } }",
        )]);
        let rules = rules_of(&v);
        assert!(rules.contains(&LOCK_RANK_CHAIN), "{v:?}");
        // And the chain names both ends.
        let chain = v.iter().find(|x| x.rule == LOCK_RANK_CHAIN).unwrap();
        assert!(
            chain.fingerprint.contains("helper"),
            "{}",
            chain.fingerprint
        );
    }

    #[test]
    fn rank_ascending_call_chain_is_clean() {
        let v = run(&[(
            "crates/broker/src/seeded.rs",
            "struct B; impl B { \
             fn f(&self) { let t = self.topics.read(); self.helper(); } \
             fn helper(&self) { let v = self.version.lock(); } }",
        )]);
        assert!(
            !rules_of(&v).contains(&LOCK_RANK_CHAIN) && !rules_of(&v).contains(&LOCK_RANK),
            "{v:?}"
        );
    }

    #[test]
    fn empirical_cycle_fails_even_unranked() {
        let v = run(&[(
            "crates/broker/src/seeded.rs",
            "struct B; impl B { \
             fn f(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); } \
             fn g(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); } }",
        )]);
        assert!(rules_of(&v).contains(&LOCK_ORDER_CYCLE), "{v:?}");
    }

    #[test]
    fn cross_fn_cycle_detected_through_calls() {
        let v = run(&[(
            "crates/broker/src/seeded.rs",
            "struct B; impl B { \
             fn f(&self) { let a = self.alpha.lock(); self.takes_beta(); } \
             fn takes_beta(&self) { let b = self.beta.lock(); } \
             fn g(&self) { let b = self.beta.lock(); self.takes_alpha(); } \
             fn takes_alpha(&self) { let a = self.alpha.lock(); } }",
        )]);
        assert!(rules_of(&v).contains(&LOCK_ORDER_CYCLE), "{v:?}");
    }

    #[test]
    fn transitive_alloc_reachable_from_kernel() {
        let v = run(&[
            (
                "crates/tensor/src/kernels/gemm.rs",
                "pub fn gemm_fast(a: &[f32]) { helper_pack(a); }",
            ),
            (
                "crates/tensor/src/packed.rs",
                "pub fn helper_pack(a: &[f32]) { let v = a.to_vec(); }",
            ),
        ]);
        let hits: Vec<_> = v
            .iter()
            .filter(|x| x.rule == HOT_PATH_ALLOC_TRANSITIVE)
            .collect();
        assert_eq!(hits.len(), 1, "{v:?}");
        assert!(hits[0]
            .fingerprint
            .contains("gemm_fast->tensor::packed::helper_pack"));
    }

    #[test]
    fn blocking_reachable_from_reactor_poll_thread() {
        let v = run(&[(
            "crates/net/src/reactor.rs",
            "fn run_reactor() { tick(); }\n\
             fn tick() { std::thread::sleep(d); }",
        )]);
        assert!(rules_of(&v).contains(&BLOCKING_IN_REACTOR), "{v:?}");
        // Bounded waits are fine.
        let clean = run(&[(
            "crates/net/src/reactor.rs",
            "fn run_reactor() { w.wait_timeout(PARK); x.park_timeout(d); }",
        )]);
        assert!(
            !rules_of(&clean).contains(&BLOCKING_IN_REACTOR),
            "{clean:?}"
        );
    }

    #[test]
    fn panic_reachable_from_rpc_handler() {
        let v = run(&[(
            "crates/broker/src/rpc.rs",
            "pub fn dispatch(req: R) { decode(req); }\n\
             fn decode(r: R) { r.field.unwrap(); }",
        )]);
        let hits: Vec<_> = v.iter().filter(|x| x.rule == PANIC_REACHABILITY).collect();
        assert_eq!(hits.len(), 1, "{v:?}");
        assert!(hits[0].fingerprint.ends_with("@unwrap"));
    }

    #[test]
    fn unreachable_panic_is_not_flagged() {
        let v = run(&[(
            "crates/broker/src/rpc.rs",
            "pub fn dispatch(req: R) { decode(req); }\n\
             fn decode(r: R) { r.ok(); }\n\
             fn cold_tool() { x.unwrap(); }",
        )]);
        assert!(!rules_of(&v).contains(&PANIC_REACHABILITY), "{v:?}");
    }
}
