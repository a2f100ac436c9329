//! The ten H2P domain-invariant rules, as token-pattern checks.
//!
//! Each rule consumes the token view of one file (see
//! [`crate::scanner`] and [`crate::lexer`]) plus its [`FileClass`] and
//! appends [`Diagnostic`]s. Rules fire only where their scope applies:
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | L1 | library code (except `h2p-units` itself) | physical quantities cross `pub fn` boundaries as newtypes, not raw `f64`/`f32` |
//! | L2 | non-test library code | no `unwrap` / `expect` / `panic!` |
//! | L3 | physics crates | no numeric `as` casts (use `From`/`TryFrom` or allow-list) |
//! | L4 | every crate's `lib.rs` | `#![forbid(unsafe_code)]` present |
//! | L5 | physics crates | no `==`/`!=` against float literals |
//! | L6 | non-test library code | no `Instant::now`/`SystemTime::now`; timing goes through `h2p_telemetry::Clock` |
//! | L7 | non-test library code | no unbounded queue/channel construction (admission goes through `h2p_serve::BoundedQueue`) and no `thread::spawn` inside loop bodies (connection/accept loops use a fixed `thread::scope` worker pool over a bounded handoff) |
//! | L8 | non-test library code | no iteration over `HashMap`/`HashSet` (iteration order varies run to run); hold ordered data in `BTreeMap`/`BTreeSet` or sort before folding |
//! | L9 | non-test library code outside [`SEED_PLUMBING_MODULES`] | no ambient nondeterminism: `thread_rng`, `RandomState::new`, `std::env` reads, unsorted `read_dir` |
//! | L10 | non-test library code | every `Mutex`/`RwLock` acquisition names a lock from the crate's `lock-order` manifest, and nested acquisitions follow manifest order |
//! | L11 | non-test library code | no `partial_cmp(..).unwrap()`/`.expect(..)` on scores inside `PlacementPolicy`/`SchedulingPolicy` impls — compare with `f64::total_cmp` |
//!
//! L8–L10 are the determinism charter: every engine result must be
//! bit-identical across worker counts, cache states, and process
//! restarts (the transparency-test bar from PRs 2–5), and hash-order
//! iteration, ambient entropy, and ad-hoc locking are the three ways
//! library code silently breaks that.

use crate::lexer::TokenKind;
use crate::scanner::ScannedFile;
use crate::{Diagnostic, FileClass, RuleId};
use std::collections::BTreeSet;
use std::path::Path;

/// Names that mark a parameter or function as carrying a physical
/// quantity (the glob set from the lint charter).
const QUANTITY_MARKERS: &[&str] = &["temp", "celsius", "watts", "flow", "pressure", "kwh", "usd"];

/// Numeric primitive types an `as` cast can target.
const NUMERIC_TYPES: &[&str] = &[
    "f64", "f32", "usize", "isize", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
];

/// `HashMap`/`HashSet` methods whose visit order is the hasher's.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Modules designated as the workspace's seed plumbing: the only
/// library code allowed to construct randomness, because they do it
/// from explicit caller-provided seeds. L9 does not scan them.
pub const SEED_PLUMBING_MODULES: &[&str] = &["crates/faults/src/plan.rs", "crates/workload/src/"];

/// Whether `needle` occurs in `haystack` as a whole word, returning
/// the byte span of the first such occurrence.
///
/// "Word" means the match is not flanked by identifier characters
/// (Unicode alphanumerics or `_`), so `temp` matches in `set temp` but
/// not in `attempt` or `tempéré`. The boundary checks decode the
/// actual neighboring characters, which is safe at any UTF-8 boundary
/// because `str::find` only returns char-aligned offsets.
#[must_use]
pub fn word_match(haystack: &str, needle: &str) -> Option<(usize, usize)> {
    if needle.is_empty() {
        return None;
    }
    let mut from = 0;
    while let Some(rel) = haystack[from..].find(needle) {
        let start = from + rel;
        let end = start + needle.len();
        let before_ok = haystack[..start]
            .chars()
            .next_back()
            .is_none_or(|c| !crate::lexer::is_ident_char(c));
        let after_ok = haystack[end..]
            .chars()
            .next()
            .is_none_or(|c| !crate::lexer::is_ident_char(c));
        if before_ok && after_ok {
            return Some((start, end));
        }
        from = end;
    }
    None
}

fn quantity_named(ident: &str) -> bool {
    let lower = ident.to_lowercase();
    QUANTITY_MARKERS.iter().any(|m| lower.contains(m))
}

/// One rule hit: 1-based line, 1-based column, message.
type Finding = (usize, usize, String);

/// Runs every token-pattern rule over one file. `crate_locks` is the
/// lock-order manifest parsed from the crate root (the file's own
/// `lock-order` directives extend it).
pub fn check_file(
    path: &Path,
    scanned: &ScannedFile,
    class: &FileClass,
    crate_locks: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let mut emit = |rule: RuleId, finding: Finding| {
        let (line, col, message) = finding;
        let allowed = scanned
            .allows
            .get(&line)
            .is_some_and(|rules| rules.contains(&rule));
        if !allowed {
            out.push(Diagnostic {
                rule,
                file: path.to_path_buf(),
                line,
                col,
                message,
            });
        }
    };

    if class.library {
        for finding in l2_no_panics(scanned) {
            emit(RuleId::L2, finding);
        }
        if class.l1_applies {
            for finding in l1_raw_quantity_signatures(scanned) {
                emit(RuleId::L1, finding);
            }
        }
        for finding in l6_wall_clock_reads(scanned) {
            emit(RuleId::L6, finding);
        }
        for finding in l7_unbounded_queues(scanned) {
            emit(RuleId::L7, finding);
        }
        for finding in l8_hash_iteration(scanned) {
            emit(RuleId::L8, finding);
        }
        if !in_seed_plumbing(path) {
            for finding in l9_ambient_nondeterminism(scanned) {
                emit(RuleId::L9, finding);
            }
        }
        for finding in l10_lock_order(scanned, crate_locks) {
            emit(RuleId::L10, finding);
        }
        for finding in l11_partial_cmp_scores(scanned) {
            emit(RuleId::L11, finding);
        }
    }
    if class.physics {
        for finding in l3_numeric_casts(scanned) {
            emit(RuleId::L3, finding);
        }
        for finding in l5_float_literal_eq(scanned) {
            emit(RuleId::L5, finding);
        }
    }
}

fn in_seed_plumbing(path: &Path) -> bool {
    let normalized = path.to_string_lossy().replace('\\', "/");
    SEED_PLUMBING_MODULES.iter().any(|m| normalized.contains(m))
}

/// L4: `lib.rs` must forbid unsafe code — token-checked, so the
/// attribute is found regardless of spacing and never inside a string.
#[must_use]
pub fn l4_forbids_unsafe(lib_rs_source: &str) -> bool {
    let s = crate::scanner::scan(lib_rs_source);
    (0..s.code.len()).any(|i| {
        s.is_punct(i, "#")
            && s.is_punct(i + 1, "!")
            && s.is_punct(i + 2, "[")
            && s.is_ident(i + 3, "forbid")
            && s.is_punct(i + 4, "(")
            && {
                let mut j = i + 5;
                let mut hit = false;
                while j < s.code.len() && !s.is_punct(j, ")") {
                    hit |= s.is_ident(j, "unsafe_code");
                    j += 1;
                }
                hit
            }
    })
}

/// Code index just past the delimiter that matches the opener at
/// `open` (whose text must be `(`, `[`, or `{`).
fn matching_close(s: &ScannedFile, open: usize) -> usize {
    let (inc, dec) = match s.text(open) {
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => ("(", ")"),
    };
    let mut depth = 0i64;
    let mut i = open;
    while i < s.code.len() {
        if s.is_punct(i, inc) {
            depth += 1;
        } else if s.is_punct(i, dec) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    s.code.len().saturating_sub(1)
}

fn at(s: &ScannedFile, i: usize) -> (usize, usize) {
    let t = s.tok(i);
    (t.line, t.col)
}

/// L2: `unwrap()` / `expect(` / `panic!` / `unimplemented!` / `todo!`
/// outside test regions. `debug_assert!` is fine (stripped in
/// release); `assert!` is a documented contract covered by clippy's
/// `missing_panics_doc`, so L2 focuses on silent aborts on the
/// paper-model hot paths.
fn l2_no_panics(s: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for i in 0..s.code.len() {
        if s.in_test(i) {
            continue;
        }
        let label = if s.is_punct(i, ".") && s.is_punct(i + 2, "(") {
            if s.is_ident(i + 1, "unwrap") && s.is_punct(i + 3, ")") {
                Some((i + 1, "`unwrap()`"))
            } else if s.is_ident(i + 1, "expect") {
                Some((i + 1, "`expect()`"))
            } else {
                None
            }
        } else if s.is_punct(i + 1, "!") && s.is_punct(i + 2, "(") {
            if s.is_ident(i, "panic") {
                Some((i, "`panic!`"))
            } else if s.is_ident(i, "unimplemented") {
                Some((i, "`unimplemented!`"))
            } else if s.is_ident(i, "todo") {
                Some((i, "`todo!`"))
            } else {
                None
            }
        } else {
            None
        };
        if let Some((anchor, label)) = label {
            let (line, col) = at(s, anchor);
            findings.push((
                line,
                col,
                format!(
                    "{label} in library code: return the crate's typed error \
                     (or justify with `// h2p-lint: allow(L2): <reason>`)"
                ),
            ));
        }
    }
    findings
}

/// L1: raw `f64`/`f32` crossing `pub fn` boundaries under a
/// quantity-like name. Token-accurate over multi-line signatures.
fn l1_raw_quantity_signatures(s: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < s.code.len() {
        if !s.is_ident(i, "pub") || s.in_test(i) {
            i += 1;
            continue;
        }
        // Optional restriction: pub(crate), pub(in …).
        let mut j = i + 1;
        if s.is_punct(j, "(") {
            j = matching_close(s, j) + 1;
        }
        if !s.is_ident(j, "fn") {
            i += 1;
            continue;
        }
        let name_idx = j + 1;
        let Some(TokenKind::Ident) = s.kind(name_idx) else {
            i = j + 1;
            continue;
        };
        let fn_name = s.text(name_idx).to_string();
        let mut k = name_idx + 1;
        // Skip generics `<…>` (angle counting; `->` in Fn bounds is
        // its own token and never miscounted).
        if s.is_punct(k, "<") {
            let mut angle = 0i64;
            while k < s.code.len() {
                angle += angle_delta(s.text(k));
                k += 1;
                if angle <= 0 {
                    break;
                }
            }
        }
        if !s.is_punct(k, "(") {
            i = name_idx;
            continue;
        }
        let close = matching_close(s, k);
        for finding in check_params(s, k + 1, close, &fn_name) {
            findings.push(finding);
        }
        // Return type: the function name carries the quantity.
        if s.is_punct(close + 1, "->") {
            let mut end = close + 2;
            while end < s.code.len()
                && !s.is_punct(end, "{")
                && !s.is_punct(end, ";")
                && !s.is_ident(end, "where")
            {
                end += 1;
            }
            if quantity_named(&fn_name) && is_raw_float_type(s, close + 2, end) {
                let (line, col) = at(s, name_idx);
                findings.push((
                    line,
                    col,
                    format!(
                        "pub fn `{fn_name}` returns a raw float for a quantity-named \
                         API — use an `h2p-units` newtype"
                    ),
                ));
            }
        }
        i = close + 1;
    }
    findings
}

/// Net angle-bracket depth change contributed by one punct token.
fn angle_delta(text: &str) -> i64 {
    match text {
        "<" => 1,
        "<<" => 2,
        ">" => -1,
        ">>" => -2,
        _ => 0,
    }
}

/// Checks the parameter list between code indices `from..close`.
fn check_params(s: &ScannedFile, from: usize, close: usize, fn_name: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut start = from;
    let mut depth = 0i64;
    let mut angle = 0i64;
    let mut k = from;
    while k <= close {
        let end_of_param = k == close || (depth == 0 && angle == 0 && s.is_punct(k, ","));
        if end_of_param {
            if let Some(f) = check_one_param(s, start, k, fn_name) {
                findings.push(f);
            }
            start = k + 1;
        } else {
            match s.text(k) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                t => angle += angle_delta(t),
            }
        }
        k += 1;
    }
    findings
}

/// One parameter (code range `[from, to)`): flags `name: f64` under a
/// quantity name.
fn check_one_param(s: &ScannedFile, from: usize, to: usize, fn_name: &str) -> Option<Finding> {
    let colon = (from..to).find(|&k| s.is_punct(k, ":"))?;
    if colon == from || s.kind(colon - 1) != Some(TokenKind::Ident) {
        return None; // destructuring or `self: …`-less patterns
    }
    let pname = s.text(colon - 1);
    if !quantity_named(pname) || !is_raw_float_type(s, colon + 1, to) {
        return None;
    }
    let (line, col) = at(s, colon - 1);
    Some((
        line,
        col,
        format!(
            "pub fn `{fn_name}` takes quantity-named parameter `{pname}` as a raw \
             float — use an `h2p-units` newtype"
        ),
    ))
}

/// Whether code range `[from, to)` is a bare raw float type: `f64`,
/// `&f32`, `&'a mut f64`, … (references and lifetimes stripped).
fn is_raw_float_type(s: &ScannedFile, from: usize, to: usize) -> bool {
    let mut core = None;
    for k in from..to.min(s.code.len()) {
        if s.is_punct(k, "&") || s.is_ident(k, "mut") || s.kind(k) == Some(TokenKind::Lifetime) {
            continue;
        }
        if core.is_some() {
            return false; // more than one substantive token
        }
        core = Some(k);
    }
    core.is_some_and(|k| s.is_ident(k, "f64") || s.is_ident(k, "f32"))
}

/// L3: `expr as <numeric>` casts (never `use x as y` renames).
fn l3_numeric_casts(s: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut stmt_start = 0;
    for i in 0..s.code.len() {
        if s.is_punct(i, ";") || s.is_punct(i, "{") || s.is_punct(i, "}") {
            stmt_start = i + 1;
            continue;
        }
        if !s.is_ident(i, "as") || i == 0 || s.in_test(i) {
            continue;
        }
        if s.is_ident(stmt_start, "use") {
            continue;
        }
        let target = if s.kind(i + 1) == Some(TokenKind::Ident) {
            s.text(i + 1)
        } else {
            continue;
        };
        if !NUMERIC_TYPES.contains(&target) {
            continue;
        }
        let (line, col) = at(s, i);
        findings.push((
            line,
            col,
            format!(
                "numeric `as {target}` cast in physics crate — use `From`/`TryFrom` \
                 conversions (or justify with `// h2p-lint: allow(L3): <reason>`)"
            ),
        ));
    }
    findings
}

/// L5: `==` / `!=` against a float literal. The lexer distinguishes
/// `1.5` from `self.0` and `0..n`, so tuple fields and ranges can no
/// longer false-positive.
fn l5_float_literal_eq(s: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for i in 0..s.code.len() {
        if s.in_test(i) || !(s.is_punct(i, "==") || s.is_punct(i, "!=")) {
            continue;
        }
        let rhs_float = s.kind(i + 1) == Some(TokenKind::Float)
            || (s.is_punct(i + 1, "-") && s.kind(i + 2) == Some(TokenKind::Float));
        let lhs_float = i > 0 && s.kind(i - 1) == Some(TokenKind::Float);
        if rhs_float || lhs_float {
            let (line, col) = at(s, i);
            findings.push((
                line,
                col,
                format!(
                    "float-literal `{}` comparison is NaN-unsafe — compare \
                     with a tolerance or use the `!(x > 0.0)` rejection idiom \
                     (or justify with `// h2p-lint: allow(L5): <reason>`)",
                    s.text(i)
                ),
            ));
        }
    }
    findings
}

/// L6: direct wall-clock reads in library code. Every timestamp must
/// come from `h2p_telemetry::Clock` so a scripted `ManualClock` can
/// replay any run; the `MonotonicClock` call sites in
/// `crates/telemetry/src/clock.rs` carry the only legal waivers.
fn l6_wall_clock_reads(s: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    for i in 0..s.code.len() {
        if s.in_test(i) {
            continue;
        }
        for source in ["Instant", "SystemTime"] {
            if s.is_ident(i, source)
                && s.is_punct(i + 1, "::")
                && s.is_ident(i + 2, "now")
                && s.is_punct(i + 3, "(")
            {
                let (line, col) = at(s, i);
                findings.push((
                    line,
                    col,
                    format!(
                        "`{source}::now()` in library code defeats replayable timing — take \
                         timestamps from `h2p_telemetry::Clock`/`Registry::now_nanos` \
                         (or justify with `// h2p-lint: allow(L6): <reason>`)"
                    ),
                ));
            }
        }
    }
    findings
}

/// L7: unbounded queue/channel construction in library code, and its
/// concurrency twin, `thread::spawn` inside a loop body. A queue
/// without an admission bound turns overload into silent memory growth
/// instead of a typed `Rejected` response; the serving charter
/// (DESIGN.md §"Scenario serving") requires every producer-facing
/// queue to go through `h2p_serve::BoundedQueue` or an equivalently
/// capacity-checked wrapper. `VecDeque::with_capacity` is flagged too:
/// capacity is an allocation hint, not an admission limit.
///
/// The spawn-in-loop check covers connection/accept structures
/// (DESIGN.md §15): a thread per accepted connection is an unbounded
/// queue of stacks, with the same overload behavior a `VecDeque::new`
/// backlog has. Serve loops use a fixed `thread::scope` worker pool
/// popping a bounded handoff queue instead; scoped `scope.spawn`
/// pools (a method call, not a `thread::spawn` path) stay clean.
fn l7_unbounded_queues(s: &ScannedFile) -> Vec<Finding> {
    const CONSTRUCTORS: &[(&str, &[&str])] = &[
        ("VecDeque", &["new", "with_capacity"]),
        ("LinkedList", &["new"]),
        ("mpsc", &["channel"]),
    ];
    let loop_bodies = loop_body_ranges(s);
    let mut findings = Vec::new();
    for i in 0..s.code.len() {
        if s.in_test(i) {
            continue;
        }
        for (base, methods) in CONSTRUCTORS {
            if !s.is_ident(i, base) || !s.is_punct(i + 1, "::") {
                continue;
            }
            let called = methods.iter().any(|m| s.is_ident(i + 2, m))
                && (s.is_punct(i + 3, "(") || s.is_punct(i + 3, "::"));
            if called {
                let (line, col) = at(s, i);
                findings.push((
                    line,
                    col,
                    format!(
                        "`{}::{}()` builds an unbounded queue in library code — admit work \
                         through `h2p_serve::BoundedQueue` (or another capacity-checked \
                         wrapper), or justify with `// h2p-lint: allow(L7): <reason>`",
                        base,
                        s.text(i + 2)
                    ),
                ));
            }
        }
        if s.is_ident(i, "thread")
            && s.is_punct(i + 1, "::")
            && s.is_ident(i + 2, "spawn")
            && s.is_punct(i + 3, "(")
            && loop_bodies
                .iter()
                .any(|&(open, close)| open < i && i < close)
        {
            let (line, col) = at(s, i);
            findings.push((
                line,
                col,
                "`thread::spawn` inside a loop grows threads without bound — serve the \
                 loop from a fixed `std::thread::scope` worker pool over a bounded \
                 handoff queue (or justify with `// h2p-lint: allow(L7): <reason>`)"
                    .to_string(),
            ));
        }
    }
    findings
}

/// Code-index spans `(open, close)` of every `loop`/`while`/`for`
/// body's braces. The body opener is the first `{` after the keyword
/// at zero paren/bracket depth; a `;` there means the keyword wasn't
/// heading a loop after all (e.g. a `for` inside a macro fragment).
fn loop_body_ranges(s: &ScannedFile) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for i in 0..s.code.len() {
        if !(s.is_ident(i, "loop") || s.is_ident(i, "while") || s.is_ident(i, "for")) {
            continue;
        }
        let mut depth = 0i64;
        let mut j = i + 1;
        while j < s.code.len() {
            match s.text(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    ranges.push((j, matching_close(s, j)));
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
    }
    ranges
}

/// Names in this file declared (or initialized) with any of the given
/// type names: `name: HashMap<…>` fields/params/lets, struct-literal
/// inits `name: Mutex::new(…)`, and `let name = HashMap::new()`.
fn names_typed_as(s: &ScannedFile, type_names: &[&str]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    // `name : …Type…` — scan the annotation/initializer up to a
    // top-level terminator.
    for i in 1..s.code.len() {
        if !s.is_punct(i, ":") || s.kind(i - 1) != Some(TokenKind::Ident) {
            continue;
        }
        let name = s.text(i - 1);
        let mut depth = 0i64;
        let mut angle = 0i64;
        let mut k = i + 1;
        let mut hit = false;
        while k < s.code.len() && k < i + 200 {
            let t = s.text(k);
            if depth == 0 && angle <= 0 && matches!(t, "," | ";" | ")" | "{" | "}" | "=") {
                break;
            }
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                _ => angle += angle_delta(t),
            }
            if s.kind(k) == Some(TokenKind::Ident) && type_names.contains(&t) {
                hit = true;
            }
            k += 1;
        }
        if hit {
            names.insert(name.to_string());
        }
    }
    // `let [mut] name = …Type::…`
    for i in 0..s.code.len() {
        if !s.is_ident(i, "let") {
            continue;
        }
        let mut j = i + 1;
        if s.is_ident(j, "mut") {
            j += 1;
        }
        if s.kind(j) != Some(TokenKind::Ident) || !s.is_punct(j + 1, "=") {
            continue;
        }
        let mut k = j + 2;
        while k < s.code.len() && k < j + 200 && !s.is_punct(k, ";") {
            if s.kind(k) == Some(TokenKind::Ident)
                && type_names.contains(&s.text(k))
                && s.is_punct(k + 1, "::")
            {
                names.insert(s.text(j).to_string());
                break;
            }
            k += 1;
        }
    }
    names
}

/// L8: iteration over `HashMap`/`HashSet` in result-affecting library
/// code. Hash iteration order depends on the hasher's per-process
/// random state, so any fold over it breaks bit-identity across runs
/// and worker counts (the Eq. 3 / Fig. 9 golden-number bar). Hold
/// ordered data in `BTreeMap`/`BTreeSet`, or collect and sort before
/// folding.
fn l8_hash_iteration(s: &ScannedFile) -> Vec<Finding> {
    let hash_names = names_typed_as(s, &["HashMap", "HashSet"]);
    if hash_names.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let flag =
        |findings: &mut Vec<Finding>, s: &ScannedFile, anchor: usize, name: &str, how: &str| {
            let (line, col) = at(s, anchor);
            findings.push((
                line,
                col,
                format!(
                    "{how} over hash-ordered `{name}` is nondeterministic — use \
                 `BTreeMap`/`BTreeSet` or sort before folding \
                 (or justify with `// h2p-lint: allow(L8): <reason>`)"
                ),
            ));
        };
    for i in 0..s.code.len() {
        if s.in_test(i) {
            continue;
        }
        // `name.iter()`, `.keys()`, `.values()`, `.drain()`, …
        if s.kind(i) == Some(TokenKind::Ident)
            && hash_names.contains(s.text(i))
            && s.is_punct(i + 1, ".")
            && s.is_punct(i + 3, "(")
            && HASH_ITER_METHODS.iter().any(|m| s.is_ident(i + 2, m))
        {
            let name = s.text(i).to_string();
            let how = format!("`.{}()`", s.text(i + 2));
            flag(&mut findings, s, i + 2, &name, &how);
        }
        // `for … in [&][mut] path.to.name {` — follow the dotted path
        // and check the final segment; a `(` after it means a method
        // call, which the patterns above already cover.
        if s.is_ident(i, "in") {
            let mut j = i + 1;
            while s.is_punct(j, "&") || s.is_ident(j, "mut") {
                j += 1;
            }
            if s.kind(j) == Some(TokenKind::Ident) {
                while s.is_punct(j + 1, ".") && s.kind(j + 2) == Some(TokenKind::Ident) {
                    j += 2;
                }
                if hash_names.contains(s.text(j)) && s.is_punct(j + 1, "{") {
                    let name = s.text(j).to_string();
                    flag(&mut findings, s, j, &name, "`for … in`");
                }
            }
        }
    }
    findings
}

/// L9: ambient nondeterminism sources in library code. Unseeded RNGs,
/// hasher random state, environment reads, and filesystem-order
/// directory walks all make a run depend on state outside the
/// scenario key. Randomness must flow from explicit seeds through the
/// designated seed-plumbing modules ([`SEED_PLUMBING_MODULES`]);
/// `read_dir` results must be sorted before use (waive the call site
/// with `allow(L9)` stating that).
fn l9_ambient_nondeterminism(s: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut push = |s: &ScannedFile, anchor: usize, what: &str, why: &str| {
        let (line, col) = at(s, anchor);
        findings.push((
            line,
            col,
            format!(
                "{what} in library code {why} — plumb explicit seeds/inputs instead \
                 (or justify with `// h2p-lint: allow(L9): <reason>`)"
            ),
        ));
    };
    for i in 0..s.code.len() {
        if s.in_test(i) {
            continue;
        }
        if s.is_ident(i, "thread_rng") && s.is_punct(i + 1, "(") {
            push(s, i, "`thread_rng()`", "draws from ambient OS entropy");
        }
        if s.is_ident(i, "RandomState")
            && s.is_punct(i + 1, "::")
            && (s.is_ident(i + 2, "new") || s.is_ident(i + 2, "default"))
        {
            push(
                s,
                i,
                "`RandomState::new()`",
                "randomizes hash order per process",
            );
        }
        if s.is_ident(i, "env")
            && s.is_punct(i + 1, "::")
            && ["var", "vars", "var_os", "vars_os"]
                .iter()
                .any(|m| s.is_ident(i + 2, m))
        {
            push(
                s,
                i,
                "`std::env` read",
                "couples results to the process environment",
            );
        }
        if s.is_ident(i, "read_dir") && s.is_punct(i + 1, "(") {
            push(
                s,
                i,
                "`read_dir()`",
                "yields entries in filesystem order, which varies across hosts",
            );
        }
    }
    findings
}

/// Chain methods that forward a lock guard rather than consuming it.
const GUARD_PRESERVING: &[&str] = &["unwrap_or_else", "unwrap", "expect"];

/// L10: lock-order discipline. Every `Mutex`/`RwLock` acquisition in
/// library code must name a lock from the crate's manifest — a
/// `// h2p-lint: lock-order: a, b, c` comment in `lib.rs` (or the
/// file itself) listing locks in their global acquisition order — and
/// an acquisition nested inside a held guard must come *later* in the
/// manifest than every lock already held. The walk is token-level:
/// `let`-bound guards live to the end of their block, temporaries to
/// the end of their statement, and `drop(guard)` releases early.
fn l10_lock_order(s: &ScannedFile, crate_locks: &[String]) -> Vec<Finding> {
    let lock_names = names_typed_as(s, &["Mutex", "RwLock"]);
    if lock_names.is_empty() {
        return Vec::new();
    }
    let mut manifest: Vec<String> = crate_locks.to_vec();
    for name in &s.lock_order {
        if !manifest.contains(name) {
            manifest.push(name.clone());
        }
    }
    let order = |name: &str| manifest.iter().position(|m| m == name);

    struct Guard {
        lock: String,
        binding: Option<String>,
        depth: i64,
        temp: bool,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut findings = Vec::new();
    let mut depth = 0i64;
    let mut stmt_start = 0usize;
    let mut i = 0;
    while i < s.code.len() {
        let text = s.text(i);
        match text {
            "{" => {
                depth += 1;
                guards.retain(|g| !g.temp);
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            "}" => {
                depth -= 1;
                guards.retain(|g| !g.temp && g.depth <= depth);
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            ";" => {
                guards.retain(|g| !g.temp);
                stmt_start = i + 1;
                i += 1;
                continue;
            }
            "drop"
                if s.is_punct(i + 1, "(")
                    && s.kind(i + 2) == Some(TokenKind::Ident)
                    && s.is_punct(i + 3, ")") =>
            {
                let released = s.text(i + 2).to_string();
                guards.retain(|g| g.binding.as_deref() != Some(released.as_str()));
                i += 1;
                continue;
            }
            _ => {}
        }

        // Acquisition site?
        let acquired = if s.kind(i) == Some(TokenKind::Ident)
            && lock_names.contains(s.text(i))
            && s.is_punct(i + 1, ".")
            && ["lock", "read", "write"]
                .iter()
                .any(|m| s.is_ident(i + 2, m))
            && s.is_punct(i + 3, "(")
        {
            Some((s.text(i).to_string(), i + 2, i + 3))
        } else if s.is_ident(i, "lock")
            && s.is_punct(i + 1, "(")
            && (i == 0
                || !(s.is_punct(i - 1, ".") || s.is_punct(i - 1, "::") || s.is_ident(i - 1, "fn")))
        {
            // Free-function poison-tolerant helper: `lock(&self.cache)`.
            let close = matching_close(s, i + 1);
            let mut lock = None;
            for k in i + 2..close {
                if s.kind(k) == Some(TokenKind::Ident) && lock_names.contains(s.text(k)) {
                    lock = Some(s.text(k).to_string());
                }
            }
            lock.map(|l| (l, i, i + 1))
        } else {
            None
        };

        let Some((lock, anchor, open)) = acquired else {
            i += 1;
            continue;
        };
        if s.in_test(anchor) {
            i += 1;
            continue;
        }
        let (line, col) = at(s, anchor);
        match order(&lock) {
            None => findings.push((
                line,
                col,
                format!(
                    "lock `{lock}` is not in the crate's lock-order manifest — declare \
                     `// h2p-lint: lock-order: …` in lib.rs naming every lock in \
                     acquisition order (or justify with `// h2p-lint: allow(L10): <reason>`)"
                ),
            )),
            Some(rank) => {
                for g in &guards {
                    match order(&g.lock) {
                        Some(_) if g.lock == lock => findings.push((
                            line,
                            col,
                            format!(
                                "lock `{lock}` re-acquired while already held \
                                 (self-deadlock) — drop the first guard before \
                                 re-locking",
                            ),
                        )),
                        Some(held) if held > rank => findings.push((
                            line,
                            col,
                            format!(
                                "lock `{lock}` acquired while `{}` is held, against \
                                 manifest order ({} before {}) — acquire in manifest \
                                 order or release first",
                                g.lock, lock, g.lock
                            ),
                        )),
                        _ => {}
                    }
                }
            }
        }

        // Guard lifetime: `let g = …lock()…;` chains of
        // guard-preserving adapters bind a guard for the block; any
        // other continuation is a temporary for the statement.
        let close = matching_close(s, open);
        let mut k = close + 1;
        let mut preserved = true;
        while s.is_punct(k, ".") {
            if s.kind(k + 1) == Some(TokenKind::Ident)
                && GUARD_PRESERVING.iter().any(|m| s.is_ident(k + 1, m))
                && s.is_punct(k + 2, "(")
            {
                k = matching_close(s, k + 2) + 1;
            } else {
                preserved = false;
                break;
            }
        }
        let is_let = s.is_ident(stmt_start, "let");
        let bound = is_let && preserved && s.is_punct(k, ";");
        let binding = if bound {
            let mut b = stmt_start + 1;
            if s.is_ident(b, "mut") {
                b += 1;
            }
            (s.kind(b) == Some(TokenKind::Ident)).then(|| s.text(b).to_string())
        } else {
            None
        };
        guards.push(Guard {
            lock,
            binding,
            depth,
            temp: !bound,
        });
        i = close + 1;
    }
    findings
}

/// L11: `partial_cmp(..)` chained into `.unwrap()` / `.expect(..)`
/// inside a `PlacementPolicy` or `SchedulingPolicy` impl. Policy
/// score comparisons run on every placement decision of every
/// simulated step; a single NaN score (e.g. an infeasible harvest
/// estimate) would panic mid-simulation. `f64::total_cmp` is total
/// over NaN and is the workspace idiom for ranking scores — policies
/// must use it (sanitizing NaN explicitly if it must lose ties).
fn l11_partial_cmp_scores(s: &ScannedFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut i = 0;
    while i < s.code.len() {
        if !s.is_ident(i, "impl") {
            i += 1;
            continue;
        }
        // The impl header runs to the body's `{` — generics and trait
        // paths contain no braces, so the first `{` opens the body.
        let mut open = i + 1;
        while open < s.code.len() && !s.is_punct(open, "{") {
            open += 1;
        }
        if open >= s.code.len() {
            break;
        }
        // A policy *trait* impl names the trait before `for`; an
        // inherent impl (no `for`) is out of scope.
        let policy_impl = (i + 1..open).any(|j| {
            (s.is_ident(j, "PlacementPolicy") || s.is_ident(j, "SchedulingPolicy"))
                && (j + 1..open).any(|k| s.is_ident(k, "for"))
        });
        if !policy_impl {
            // Keep scanning from inside the body: a nested policy
            // impl (e.g. inside a function) must still be caught.
            i = open + 1;
            continue;
        }
        let close = matching_close(s, open);
        let mut j = open + 1;
        while j < close {
            if !s.in_test(j)
                && s.is_punct(j, ".")
                && s.is_ident(j + 1, "partial_cmp")
                && s.is_punct(j + 2, "(")
            {
                let args_close = matching_close(s, j + 2);
                if s.is_punct(args_close + 1, ".")
                    && (s.is_ident(args_close + 2, "unwrap")
                        || s.is_ident(args_close + 2, "expect"))
                    && s.is_punct(args_close + 3, "(")
                {
                    let (line, col) = at(s, j + 1);
                    findings.push((
                        line,
                        col,
                        "`partial_cmp(..)` unwrapped inside a placement/scheduling policy: \
                         a NaN score panics mid-simulation — rank scores with \
                         `f64::total_cmp` \
                         (or justify with `// h2p-lint: allow(L11): <reason>`)"
                            .to_owned(),
                    ));
                }
                j = args_close + 1;
                continue;
            }
            j += 1;
        }
        i = close + 1;
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;
    use crate::FileClass;
    use std::path::PathBuf;

    fn run_with_locks(source: &str, class: &FileClass, locks: &[&str]) -> Vec<Diagnostic> {
        let scanned = scan(source);
        let locks: Vec<String> = locks.iter().map(|s| (*s).to_string()).collect();
        let mut out = Vec::new();
        check_file(&PathBuf::from("test.rs"), &scanned, class, &locks, &mut out);
        out
    }

    fn run(source: &str, class: &FileClass) -> Vec<Diagnostic> {
        run_with_locks(source, class, &[])
    }

    fn physics_lib() -> FileClass {
        FileClass {
            library: true,
            physics: true,
            l1_applies: true,
        }
    }

    fn only(diags: &[Diagnostic], rule: RuleId) -> Vec<&Diagnostic> {
        diags.iter().filter(|d| d.rule == rule).collect()
    }

    #[test]
    fn word_match_returns_spans_and_respects_boundaries() {
        assert_eq!(word_match("set temp here", "temp"), Some((4, 8)));
        assert_eq!(word_match("attempt", "temp"), None);
        assert_eq!(word_match("temp", "temp"), Some((0, 4)));
        assert_eq!(word_match("", "temp"), None);
        assert_eq!(word_match("x", ""), None);
    }

    #[test]
    fn word_match_is_safe_and_correct_at_utf8_boundaries() {
        // Multibyte neighbors are identifier characters: no match.
        assert_eq!(word_match("tempéré", "temp"), None);
        assert_eq!(word_match("étemp", "temp"), None);
        assert_eq!(word_match("温度temp", "temp"), None);
        // Multibyte non-identifier neighbors are word boundaries.
        assert_eq!(word_match("«temp»", "temp"), Some((2, 6)));
        let hay = "t°mp temp";
        assert_eq!(word_match(hay, "temp"), Some((6, 10)));
        // A rejected first hit must not prevent a later match.
        assert_eq!(word_match("tempo temp", "temp"), Some((6, 10)));
    }

    #[test]
    fn l1_flags_raw_quantity_params_and_returns() {
        let src = "pub fn set_inlet_temp(inlet_temp_c: f64) {}\n\
                   pub fn water_flow(&self) -> f64 { self.flow }\n\
                   pub fn count(&self) -> usize { 0 }\n\
                   pub fn inlet(&self) -> Celsius { self.t }\n";
        let diags = run(src, &physics_lib());
        let l1 = only(&diags, RuleId::L1);
        assert_eq!(l1.len(), 2, "{l1:?}");
        assert_eq!(l1[0].line, 1);
        assert_eq!(l1[1].line, 2);
    }

    #[test]
    fn l1_handles_multiline_signatures_and_generics() {
        let src = "pub fn blend<F: Fn(usize) -> f64>(\n\
                       weights: &[f64],\n\
                       inlet_temp_c: f64,\n\
                   ) -> Celsius { Celsius::new(0.0) }\n";
        let diags = run(src, &physics_lib());
        let l1 = only(&diags, RuleId::L1);
        assert_eq!(l1.len(), 1, "{l1:?}");
        assert_eq!(l1[0].line, 3, "{l1:?}");
    }

    #[test]
    fn l1_ignores_pub_fn_inside_strings_and_comments() {
        let src = "const DOC: &str = \"pub fn set_temp(temp_c: f64)\";\n\
                   // pub fn flow_rate(flow_lpm: f64) -> f64\n";
        let diags = run(src, &physics_lib());
        assert!(only(&diags, RuleId::L1).is_empty(), "{diags:?}");
    }

    #[test]
    fn l2_exempts_tests_and_allows() {
        let src = "fn a() { x.unwrap(); }\n\
                   fn b() { y.expect(\"ok\"); } // h2p-lint: allow(L2): infallible\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { z.unwrap(); panic!(\"no\"); }\n}\n";
        let diags = run(src, &physics_lib());
        let l2 = only(&diags, RuleId::L2);
        assert_eq!(l2.len(), 1, "{l2:?}");
        assert_eq!(l2[0].line, 1);
    }

    #[test]
    fn l2_does_not_flag_debug_assert_or_strings() {
        let src = "fn a() { debug_assert!(x > 0.0); }\n\
                   const MSG: &str = \"never panic!(here)\";\n\
                   fn b() { let s = r#\"x.unwrap()\"#; }\n";
        let diags = run(src, &physics_lib());
        assert!(only(&diags, RuleId::L2).is_empty(), "{diags:?}");
    }

    #[test]
    fn l3_flags_numeric_casts_only_in_physics() {
        let src = "fn a(n: usize) -> f64 { n as f64 }\n";
        assert_eq!(run(src, &physics_lib()).len(), 1);
        let non_physics = FileClass {
            library: true,
            physics: false,
            l1_applies: true,
        };
        assert!(run(src, &non_physics).is_empty());
    }

    #[test]
    fn l3_skips_use_renames() {
        let src = "use std::f64 as flt;\n";
        assert!(run(src, &physics_lib()).is_empty());
    }

    #[test]
    fn l5_flags_float_literal_comparisons() {
        let src = "fn a(x: f64) -> bool { x == 0.0 }\n\
                   fn b(x: f64) -> bool { 1.5 != x }\n\
                   fn c(x: f64) -> bool { !(x > 0.0) }\n\
                   fn d(n: usize) -> bool { n == 0 }\n\
                   fn e(t: &(f64, u8)) -> bool { t.1 == self.0 }\n";
        let diags = run(src, &physics_lib());
        let l5 = only(&diags, RuleId::L5);
        assert_eq!(l5.len(), 2, "{l5:?}");
    }

    #[test]
    fn l6_flags_wall_clock_reads_outside_tests() {
        let src = "fn a() { let t = std::time::Instant::now(); }\n\
                   fn b() { let t = SystemTime::now(); }\n\
                   fn c() { let t = Instant::now(); } // h2p-lint: allow(L6): Clock impl\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let x = Instant::now(); }\n}\n";
        let diags = run(src, &physics_lib());
        let l6 = only(&diags, RuleId::L6);
        assert_eq!(l6.len(), 2, "{l6:?}");
        assert_eq!(l6[0].line, 1);
        assert_eq!(l6[1].line, 2);
    }

    #[test]
    fn l7_flags_unbounded_queue_construction() {
        let src = "fn a() { let q: VecDeque<u8> = VecDeque::new(); }\n\
                   fn b() { let q: VecDeque<u8> = VecDeque::with_capacity(8); }\n\
                   fn c() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); }\n\
                   // h2p-lint: allow(L7): bounded by the admission check\n\
                   fn d() { let q: VecDeque<u8> = VecDeque::new(); }\n\
                   fn e() { let (tx, rx) = std::sync::mpsc::sync_channel::<u8>(4); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { let q: VecDeque<u8> = VecDeque::new(); }\n}\n";
        let diags = run(src, &physics_lib());
        let l7 = only(&diags, RuleId::L7);
        assert_eq!(l7.len(), 3, "{l7:?}");
        assert_eq!(l7[0].line, 1);
        assert_eq!(l7[1].line, 2);
        assert_eq!(l7[2].line, 3);
    }

    #[test]
    fn l7_flags_thread_spawn_inside_loops_only() {
        // The gateway shapes (DESIGN.md §15): a thread per accepted
        // connection fires; a fixed scoped worker pool and a one-shot
        // background spawn do not.
        let src = "fn per_conn(l: &TcpListener) {\n\
                       loop {\n\
                           let (conn, _) = l.accept().unwrap();\n\
                           std::thread::spawn(move || handle(conn));\n\
                       }\n\
                   }\n\
                   fn per_item(items: &[u8]) {\n\
                       for _ in items { thread::spawn(|| work()); }\n\
                   }\n\
                   fn waived(l: &TcpListener) {\n\
                       while running() {\n\
                           thread::spawn(step); // h2p-lint: allow(L7): joined each iteration\n\
                       }\n\
                   }\n\
                   fn pool(queue: &Handoff) {\n\
                       std::thread::scope(|scope| {\n\
                           for _ in 0..4 { scope.spawn(|| drain(queue)); }\n\
                       });\n\
                   }\n\
                   fn one_shot() { let h = thread::spawn(bg); h.join(); }\n";
        let diags = run(src, &physics_lib());
        let l7 = only(&diags, RuleId::L7);
        assert_eq!(l7.len(), 2, "{l7:?}");
        assert_eq!(l7[0].line, 4);
        assert_eq!(l7[1].line, 8);
        assert!(l7[0].message.contains("worker pool"), "{l7:?}");
    }

    #[test]
    fn l4_detects_forbid_attribute() {
        assert!(l4_forbids_unsafe("//! docs\n#![forbid(unsafe_code)]\n"));
        assert!(l4_forbids_unsafe("#! [ forbid ( unsafe_code ) ]\n"));
        assert!(!l4_forbids_unsafe("//! docs\n#![warn(missing_docs)]\n"));
        assert!(!l4_forbids_unsafe(
            "const S: &str = \"#![forbid(unsafe_code)]\";\n"
        ));
    }

    #[test]
    fn l8_flags_hash_map_iteration_not_lookup() {
        let src = "struct C { map: HashMap<K, V> }\n\
                   fn a(c: &C) -> Option<&V> { c.map.get(&k) }\n\
                   fn b(c: &C) -> usize { c.map.iter().count() }\n\
                   fn c(c: &C) { for (k, v) in &c.map { touch(k, v); } }\n\
                   fn d(set: &HashSet<u64>) -> Vec<u64> { set.iter().copied().collect() }\n\
                   fn e(m: &BTreeMap<K, V>) { for v in m.values() {} }\n";
        let diags = run(src, &physics_lib());
        let l8 = only(&diags, RuleId::L8);
        assert_eq!(l8.len(), 3, "{l8:?}");
        assert_eq!(l8[0].line, 3);
        assert_eq!(l8[1].line, 4);
        assert_eq!(l8[2].line, 5);
    }

    #[test]
    fn l8_pins_the_kernel_event_queue_to_ordered_containers() {
        // A forced-event queue (`step → circulations`) feeds a
        // re-evaluation schedule, so it is result-affecting and must
        // live in a BTreeMap/Vec, never a HashMap. The violating shape
        // fires; the ordered shape does not.
        let bad = "struct Q { forced: HashMap<usize, Vec<usize>> }\n\
                   fn drain(q: &Q) -> Vec<usize> { q.forced.keys().copied().collect() }\n";
        let diags = run(bad, &physics_lib());
        assert_eq!(only(&diags, RuleId::L8).len(), 1, "{diags:?}");

        let good = "struct Q { forced: BTreeMap<usize, Vec<usize>>, current: Vec<usize> }\n\
                    fn drain(q: &Q) -> Vec<usize> { q.forced.keys().copied().collect() }\n\
                    fn is_forced(q: &Q, c: usize) -> bool { q.current.binary_search(&c).is_ok() }\n";
        let diags = run(good, &physics_lib());
        assert!(only(&diags, RuleId::L8).is_empty(), "{diags:?}");
    }

    #[test]
    fn l8_respects_allow_and_tests() {
        let src = "fn a(m: &HashMap<K, V>) {\n\
                       for k in m.keys() {} // h2p-lint: allow(L8): keys re-sorted below\n\
                   }\n\
                   #[cfg(test)]\nmod t {\n    fn x(m: &HashMap<K, V>) { m.iter(); }\n}\n";
        let diags = run(src, &physics_lib());
        assert!(only(&diags, RuleId::L8).is_empty(), "{diags:?}");
    }

    #[test]
    fn l9_flags_ambient_nondeterminism_sources() {
        let src = "fn a() -> f64 { thread_rng().gen() }\n\
                   fn b() -> RandomState { RandomState::new() }\n\
                   fn c() -> String { std::env::var(\"SEED\").unwrap_or_default() }\n\
                   fn d(p: &Path) { for e in std::fs::read_dir(p) {} }\n\
                   fn e(p: &Path) { let entries = std::fs::read_dir(p); } // h2p-lint: allow(L9): sorted below\n";
        let diags = run(src, &physics_lib());
        let l9 = only(&diags, RuleId::L9);
        assert_eq!(l9.len(), 4, "{l9:?}");
    }

    #[test]
    fn l10_requires_manifest_membership() {
        let src = "struct S { state: Mutex<u64> }\n\
                   fn a(s: &S) { let g = s.state.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        let diags = run(src, &physics_lib());
        let l10 = only(&diags, RuleId::L10);
        assert_eq!(l10.len(), 1, "{l10:?}");
        assert!(l10[0].message.contains("manifest"), "{l10:?}");
        // Same file, with the lock declared: clean.
        let with_manifest = run_with_locks(src, &physics_lib(), &["state"]);
        assert!(
            only(&with_manifest, RuleId::L10).is_empty(),
            "{with_manifest:?}"
        );
    }

    #[test]
    fn l10_flags_nested_acquisition_against_manifest_order() {
        let src = "// h2p-lint: lock-order: first, second\n\
                   struct S { first: Mutex<u64>, second: Mutex<u64> }\n\
                   fn good(s: &S) {\n\
                       let a = s.first.lock();\n\
                       let b = s.second.lock();\n\
                   }\n\
                   fn bad(s: &S) {\n\
                       let b = s.second.lock();\n\
                       let a = s.first.lock();\n\
                   }\n\
                   fn sequential(s: &S) {\n\
                       { let b = s.second.lock(); }\n\
                       let a = s.first.lock();\n\
                   }\n";
        let diags = run(src, &physics_lib());
        let l10 = only(&diags, RuleId::L10);
        assert_eq!(l10.len(), 1, "{l10:?}");
        assert_eq!(l10[0].line, 9, "{l10:?}");
        assert!(l10[0].message.contains("manifest order"), "{l10:?}");
    }

    #[test]
    fn l10_temporary_guards_die_at_statement_end() {
        let src = "// h2p-lint: lock-order: a_lock, b_lock\n\
                   struct S { a_lock: Mutex<u64>, b_lock: Mutex<u64> }\n\
                   fn f(s: &S) {\n\
                       let n = s.b_lock.lock().unwrap_or_else(PoisonError::into_inner).clone();\n\
                       let g = s.a_lock.lock();\n\
                   }\n";
        let diags = run(src, &physics_lib());
        assert!(only(&diags, RuleId::L10).is_empty(), "{diags:?}");
    }

    #[test]
    fn l10_detects_free_helper_acquisitions_and_reacquisition() {
        let src = "// h2p-lint: lock-order: cache\n\
                   struct S { cache: Mutex<u64> }\n\
                   fn f(s: &S) {\n\
                       let g = lock(&s.cache);\n\
                       let h = lock(&s.cache);\n\
                   }\n";
        let diags = run(src, &physics_lib());
        let l10 = only(&diags, RuleId::L10);
        assert_eq!(l10.len(), 1, "{l10:?}");
        assert!(l10[0].message.contains("re-acquired"), "{l10:?}");
    }

    #[test]
    fn l10_drop_releases_a_guard_early() {
        let src = "// h2p-lint: lock-order: first, second\n\
                   struct S { first: Mutex<u64>, second: Mutex<u64> }\n\
                   fn f(s: &S) {\n\
                       let b = s.second.lock();\n\
                       drop(b);\n\
                       let a = s.first.lock();\n\
                   }\n";
        let diags = run(src, &physics_lib());
        assert!(only(&diags, RuleId::L10).is_empty(), "{diags:?}");
    }

    #[test]
    fn l11_flags_unwrapped_partial_cmp_in_policy_impls() {
        let src = "impl PlacementPolicy for Greedy {\n\
                       fn place(&mut self, job: &Job, view: &ClusterView<'_>) -> Option<usize> {\n\
                           scores.iter().max_by(|a, b| a.partial_cmp(b).unwrap())\n\
                       }\n\
                   }\n\
                   impl SchedulingPolicy for Greedy {\n\
                       fn schedule(&self, chunk: &[Utilization]) -> Utilization {\n\
                           let _ = a.partial_cmp(&b).expect(\"ordered\");\n\
                           chunk[0]\n\
                       }\n\
                   }\n";
        let diags = run(src, &physics_lib());
        let l11 = only(&diags, RuleId::L11);
        assert_eq!(l11.len(), 2, "{l11:?}");
        assert_eq!(l11[0].line, 3);
        assert_eq!(l11[1].line, 8);
        assert!(l11[0].message.contains("total_cmp"), "{l11:?}");
    }

    #[test]
    fn l11_ignores_total_cmp_handled_options_and_other_impls() {
        let src = "impl PlacementPolicy for Safe {\n\
                       fn place(&mut self) -> Option<usize> {\n\
                           scores.iter().max_by(|a, b| a.total_cmp(b));\n\
                           let ord = a.partial_cmp(&b).unwrap_or(Ordering::Less);\n\
                           None\n\
                       }\n\
                   }\n\
                   impl Display for Other {\n\
                       fn fmt(&self) { let _ = a.partial_cmp(&b).unwrap(); }\n\
                   }\n\
                   impl PlacementPolicyKind {\n\
                       fn inherent() { let _ = a.partial_cmp(&b).unwrap(); }\n\
                   }\n";
        let diags = run(src, &physics_lib());
        assert!(only(&diags, RuleId::L11).is_empty(), "{diags:?}");
        // ...but L2 still owns the bare unwraps outside policy impls.
        assert!(!only(&diags, RuleId::L2).is_empty(), "{diags:?}");
    }

    #[test]
    fn l11_respects_waivers_and_test_regions() {
        let src = "impl PlacementPolicy for Waived {\n\
                       fn place(&mut self) -> Option<usize> {\n\
                           a.partial_cmp(&b).unwrap(); // h2p-lint: allow(L11): scores proven finite\n\
                           None\n\
                       }\n\
                   }\n\
                   #[cfg(test)]\nmod tests {\n\
                       impl PlacementPolicy for T {\n\
                           fn place(&mut self) -> Option<usize> {\n\
                               a.partial_cmp(&b).unwrap();\n\
                               None\n\
                           }\n\
                       }\n\
                   }\n";
        let diags = run(src, &physics_lib());
        assert!(only(&diags, RuleId::L11).is_empty(), "{diags:?}");
    }

    #[test]
    fn diagnostics_carry_columns() {
        let src = "fn a() {     x.unwrap(); }\n";
        let diags = run(src, &physics_lib());
        let l2 = only(&diags, RuleId::L2);
        assert_eq!(l2.len(), 1);
        assert_eq!(l2[0].line, 1);
        assert_eq!(l2[0].col, 16, "{l2:?}");
    }
}
