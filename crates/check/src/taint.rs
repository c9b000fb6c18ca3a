//! Untrusted-input taint tracking over the workspace call graph.
//!
//! The artifact formats (`ERAP` packed text, `ERAFLAT1` arenas, the `ERACAT1`
//! catalog) are parsed from hostile bytes. [`crate::fsck`] verifies the
//! artifacts themselves; this pass verifies the *code that reads them*: no
//! value derived from untrusted input may reach unchecked arithmetic, a
//! truncating cast, an allocation size, or a slice index without passing
//! through validation first.
//!
//! | | |
//! |---|---|
//! | **Sources** | byte-slice parameters and `read_exact`/`read_at`/`read`-filled buffers of *parser functions* (fns named `parse_*`/`open`/`open_*`/`load_*`/`deserialize*`, or carrying `// era-check: source`); `uNN::from_le_bytes`-family results in parser fns, and in *any* fn that applies them to one of its own byte-slice parameters and hands the value out through `return`, `Some(..)` or `Ok(..)`; single bytes read out of a tainted buffer; calls to fns whose return is tainted (interprocedural summaries). |
//! | **Sinks** | `taint-arith`: bare `+`/`-`/`*`/`<<` (incl. compound assigns) with a tainted operand of width ≥ 32; `taint-cast`: `as` casts that narrow a tainted value (`usize` counts as 32-bit when a target, so `u64 as usize` is flagged and `u32 as usize` is not); `taint-alloc`: `Vec::with_capacity`/`.with_capacity`/`.reserve`/`vec![_; n]` sized by a tainted value of width ≥ 32; `taint-index`: `x[i]` where `i` is tainted with width ≥ 16 (u8 indexes into 256-entry tables are the standard safe idiom). |
//! | **Sanitizers** | `.try_into()`/`T::try_from(..)`, `.checked_*`/`.saturating_*` chains, `.min(..)`/`.clamp(..)`, widening `as u128`/`as i128`, an *ordered* comparison (`<`/`<=`/`>`/`>=`) with the value (equality against a constant does **not** bound a value and sanitizes nothing), and a reasoned `// era-check: sanitized(taint): why` directive. |
//! | **Suppression** | the shared allow machinery: `// era-check: allow(taint-*): why` on the sink line, the preceding line, or the fn declaration. |
//!
//! The analysis is intraprocedural over each fn's token stream, with
//! call-graph *summaries* iterated to fixpoint: a fn that returns a tainted
//! value (`return x` / `Ok(x)` / `Some(x)` wrapping taint) taints the
//! binding at every call site, and findings carry the source→sink chain
//! (`read_u32 <- u32::from_le_bytes`) the way panic-path findings carry
//! their call chain. Only non-test fns of the library crates are analysed
//! and resolved, on the [`Index`] the lint pass shares.
//!
//! Known, deliberate approximations (this is a token-level checker, not a
//! type checker): taint does not flow through fn *arguments* (only returns),
//! widths are tracked conservatively (`usize` is a 32-bit cast target but a
//! 64-bit source), tainted values below the width thresholds are carried but
//! never flagged, and a sanitizer anywhere in a binding's right-hand side
//! clears the whole statement's taint. Each approximation trades a class of
//! false positives for a small, documented blind spot — the same bargain the
//! lint pass makes, and escapable the same way: a reasoned directive.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

use crate::graph::{skip_group, skip_turbofish, Finding, FnInfo, Index, IndexedFile};
use crate::lex::{TokKind, Token};

/// The sink classes the taint pass reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaintRule {
    /// Unchecked `+`/`-`/`*`/`<<` on a tainted integer.
    Arith,
    /// Truncating `as` cast of a tainted integer.
    Cast,
    /// Allocation sized by a tainted integer.
    Alloc,
    /// Direct indexing by a tainted integer.
    Index,
}

impl TaintRule {
    /// Every sink class, in reporting order. The fixture suite iterates
    /// this — a class added here without fixtures fails that suite.
    pub const ALL: &'static [TaintRule] =
        &[TaintRule::Arith, TaintRule::Cast, TaintRule::Alloc, TaintRule::Index];

    /// The rule's name as used in `// era-check: allow(<name>)` directives.
    pub fn name(self) -> &'static str {
        match self {
            TaintRule::Arith => "taint-arith",
            TaintRule::Cast => "taint-cast",
            TaintRule::Alloc => "taint-alloc",
            TaintRule::Index => "taint-index",
        }
    }
}

impl fmt::Display for TaintRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One taint violation; its message carries the source→sink chain and the
/// required fix.
pub type TaintFinding = Finding<TaintRule>;

/// A full taint run: findings plus the pass statistics the CI summary line
/// reports.
#[derive(Debug, Default)]
pub struct TaintReport {
    /// Files scanned.
    pub files: usize,
    /// Non-test library functions analyzed.
    pub fns: usize,
    /// Resolved call edges between analyzed functions.
    pub call_edges: usize,
    /// Functions whose return value carries taint (interprocedural flows).
    pub tainted_flows: usize,
    /// Findings suppressed by a reasoned allow/sanitized directive.
    pub allows: usize,
    /// All violations, in file order.
    pub findings: Vec<TaintFinding>,
}

impl TaintReport {
    /// Whether the workspace is clean.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// `from_*_bytes` constructors whose result is a taint source in parser fns.
const FROM_BYTES: &[&str] = &["from_le_bytes", "from_be_bytes", "from_ne_bytes"];

/// Methods that fill a `&mut` buffer argument from the outside world.
const READ_FILLS: &[&str] = &["read_exact", "read_at", "read", "read_to_end"];

/// Whether `name` is a method that clears integer taint from the expression.
fn is_sanitizer_method(name: &str) -> bool {
    name == "try_into"
        || name == "try_from"
        || name == "min"
        || name == "clamp"
        || name.starts_with("checked_")
        || name.starts_with("saturating_")
}

/// Bit width of a primitive integer type name, if it is one.
fn int_width(name: &str) -> Option<u32> {
    Some(match name {
        "u8" | "i8" => 8,
        "u16" | "i16" => 16,
        "u32" | "i32" => 32,
        "u64" | "i64" => 64,
        "u128" | "i128" => 128,
        // `usize` is 32-bit on the smallest supported target, so it is a
        // 32-bit *cast target*; as a taint source it is produced from a
        // sized origin whose width the tracker already carries.
        "usize" | "isize" => 32,
        _ => return None,
    })
}

/// Whether this fn is a trust-boundary parser: intrinsic sources
/// (`from_le_bytes`, filled buffers, byte-slice params) are live inside it.
fn is_parser_fn(f: &FnInfo) -> bool {
    f.source
        || f.name == "open"
        || f.name.starts_with("open_")
        || f.name.starts_with("parse_")
        || f.name.starts_with("load_")
        || f.name.starts_with("deserialize")
}

/// One tracked tainted value: its width in bits and a human-readable origin
/// chain for findings.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Taint {
    width: u32,
    via: String,
}

impl Taint {
    fn max(a: Option<Taint>, b: Option<Taint>) -> Option<Taint> {
        match (a, b) {
            (Some(x), Some(y)) => Some(if y.width > x.width { y } else { x }),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

/// The widest tainted summary among a call's resolution candidates.
fn call_summary(
    index: &Index,
    name: &str,
    qual: Option<&str>,
    summaries: &HashMap<usize, Taint>,
) -> Option<Taint> {
    let mut best: Option<Taint> = None;
    for id in index.resolve(name, qual) {
        if let Some(t) = summaries.get(&id) {
            let chained = Taint {
                width: t.width,
                via: format!("{} <- {}", index.fn_info(id).qual_name, t.via),
            };
            best = Taint::max(best, Some(chained));
        }
    }
    best
}

/// Runs the taint pass over the non-test library fns of `index`:
/// intraprocedural passes iterated to a summary fixpoint, then one
/// collection pass that produces the findings.
pub fn taint(index: &Index) -> TaintReport {
    let analyzed: Vec<usize> = (0..index.fn_count())
        .filter(|&id| index.is_library_fn(id) && index.fn_info(id).body.is_some())
        .collect();
    let mut summaries: HashMap<usize, Taint> = HashMap::new();
    // Widths only grow and are bounded, so the fixpoint terminates; the
    // iteration cap is a backstop against pathological inputs.
    for _ in 0..10 {
        let mut changed = false;
        for &id in &analyzed {
            let mut pass = FnPass::new(index, id, &summaries, false);
            let mut computed = pass.walk();
            let f = index.fn_info(id);
            if f.source && computed.is_none() {
                // The directive asserts the return value is untrusted
                // even when the body's flow is invisible to the tracker;
                // when the walk did derive a width, the derived (usually
                // narrower) one wins.
                computed = Some(Taint { width: 64, via: format!("`{}` source directive", f.name) });
            }
            let prev = summaries.get(&id).map(|t| t.width);
            match computed {
                Some(t) if prev != Some(t.width) => {
                    summaries.insert(id, t);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    let mut findings = Vec::new();
    let mut allows = 0usize;
    let mut call_edges = 0usize;
    for &id in &analyzed {
        let mut pass = FnPass::new(index, id, &summaries, true);
        pass.walk();
        findings.extend(pass.findings);
        allows += pass.allows_used;
        for call in &index.fn_info(id).calls {
            call_edges += index.resolve(&call.name, call.qual.as_deref()).len();
        }
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name())));
    TaintReport {
        files: index.files.len(),
        fns: analyzed.len(),
        call_edges,
        tainted_flows: summaries.len(),
        allows,
        findings,
    }
}

/// The intraprocedural walk over one fn's body tokens.
struct FnPass<'a> {
    index: &'a Index,
    file: &'a IndexedFile,
    info: &'a FnInfo,
    toks: &'a [Token],
    summaries: &'a HashMap<usize, Taint>,
    parser: bool,
    collect: bool,
    /// Tainted integer locals, by width and origin.
    tainted: HashMap<String, Taint>,
    /// Tainted byte buffers (filled from outside the trust boundary).
    buffers: HashSet<String>,
    /// The fn's `&[u8]`-ish parameters, parser or not: decoding one with
    /// `from_le_bytes` and handing the value out makes any fn a source.
    slice_params: HashSet<String>,
    /// Taint of the expression currently being read, left to right.
    reg: Option<Taint>,
    /// Call-summary taints to apply once the walk passes the call's `)`.
    pending: Vec<(usize, Taint)>,
    /// Unsanitized taint seen anywhere in the current statement.
    stmt_taint: Option<Taint>,
    /// Whether the current statement's RHS exposes a tainted buffer.
    stmt_buf: bool,
    /// Binding targets of the current `let`/assignment statement.
    targets: Vec<String>,
    paren_depth: usize,
    bracket_depth: usize,
    at_stmt_start: bool,
    /// The fn's computed return taint.
    summary: Option<Taint>,
    findings: Vec<TaintFinding>,
    allows_used: usize,
}

impl<'a> FnPass<'a> {
    fn new(
        index: &'a Index,
        id: usize,
        summaries: &'a HashMap<usize, Taint>,
        collect: bool,
    ) -> FnPass<'a> {
        let file = index.file_of(id);
        let info = index.fn_info(id);
        let mut pass = FnPass {
            index,
            file,
            info,
            toks: &file.lexed.tokens,
            summaries,
            parser: is_parser_fn(info),
            collect,
            tainted: HashMap::new(),
            buffers: HashSet::new(),
            slice_params: HashSet::new(),
            reg: None,
            pending: Vec::new(),
            stmt_taint: None,
            stmt_buf: false,
            targets: Vec::new(),
            paren_depth: 0,
            bracket_depth: 0,
            at_stmt_start: true,
            summary: None,
            findings: Vec::new(),
            allows_used: 0,
        };
        pass.collect_byte_slice_params();
        if pass.parser {
            pass.buffers = pass.slice_params.clone();
        }
        pass
    }

    /// Records every `&[u8]`-ish parameter of the fn; in a parser fn they
    /// are tainted buffers.
    fn collect_byte_slice_params(&mut self) {
        let (ss, se) = self.info.sig;
        let toks = &self.toks[ss..se.min(self.toks.len())];
        // Find the parameter parens.
        let Some(open) = toks.iter().position(|t| t.is_punct('(')) else { return };
        let mut depth = 0usize;
        let mut name: Option<&str> = None;
        let mut ty: Vec<&str> = Vec::new();
        let mut ty_has_bracket = false;
        let mut in_type = false;
        for (k, t) in toks.iter().enumerate().skip(open) {
            match &t.kind {
                TokKind::Punct('(') | TokKind::Punct('[') => {
                    if t.is_punct('[') && in_type {
                        ty_has_bracket = true;
                    }
                    depth += 1;
                }
                TokKind::Punct(')') | TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                // A lone `:` separates name from type (`::` paths only
                // occur inside types, where `in_type` is already set).
                TokKind::Punct(':')
                    if depth == 1
                        && !toks.get(k + 1).is_some_and(|n| n.is_punct(':'))
                        && !toks.get(k.wrapping_sub(1)).is_some_and(|n| n.is_punct(':')) =>
                {
                    in_type = true;
                }
                TokKind::Punct(',') if depth == 1 => {
                    self.finish_param(name.take(), &ty, ty_has_bracket);
                    ty.clear();
                    ty_has_bracket = false;
                    in_type = false;
                }
                TokKind::Ident(id) => {
                    if in_type {
                        ty.push(id);
                    } else if id != "mut" && id != "ref" && id != "self" {
                        name = Some(id);
                    }
                }
                _ => {}
            }
        }
        self.finish_param(name.take(), &ty, ty_has_bracket);
    }

    fn finish_param(&mut self, name: Option<&str>, ty: &[&str], ty_has_bracket: bool) {
        if let Some(n) = name {
            if ty_has_bracket && ty.contains(&"u8") {
                self.slice_params.insert(n.to_string());
            }
        }
    }

    fn end_statement(&mut self) {
        let taint = self.stmt_taint.take();
        let buf = std::mem::take(&mut self.stmt_buf);
        for t in std::mem::take(&mut self.targets) {
            match &taint {
                Some(tt) => {
                    self.tainted.insert(t, tt.clone());
                }
                None if buf => {
                    self.buffers.insert(t);
                }
                None => {
                    // Rebinding to a clean value clears old taint.
                    self.tainted.remove(&t);
                    self.buffers.remove(&t);
                }
            }
        }
        self.reg = None;
        self.at_stmt_start = true;
    }

    fn taint_of(&self, tok: &Token) -> Option<&Taint> {
        tok.ident().and_then(|id| self.tainted.get(id))
    }

    /// Records taint entering the current expression at `line` — unless a
    /// `sanitized(taint)` directive covers the site, in which case the value
    /// is validated out-of-band and enters clean.
    fn note_taint(&mut self, t: Taint, line: usize) {
        if self.file.lexed.sanitizes_site(line, "taint") {
            self.sanitize_expr();
            return;
        }
        self.stmt_taint = Taint::max(self.stmt_taint.take(), Some(t.clone()));
        self.reg = Some(t);
    }

    fn sanitize_expr(&mut self) {
        self.reg = None;
        self.stmt_taint = None;
    }

    fn report(&mut self, rule: TaintRule, line: usize, message: String) {
        if !self.collect {
            return;
        }
        let lexed = &self.file.lexed;
        if lexed.allows_site(line, rule.name())
            || self.info.allows_rule(rule.name())
            || lexed.sanitizes_site(line, "taint")
        {
            self.allows_used += 1;
            return;
        }
        self.findings.push(TaintFinding {
            rule,
            file: self.file.rel.clone(),
            line,
            excerpt: self.file.excerpt(line),
            message,
        });
    }

    /// Scans a token slice (a group body) for unsanitized taint — used for
    /// `Ok(..)`/`Some(..)`/`return ..` summary detection.
    fn scan_expr_taint(&self, slice: &[Token]) -> Option<Taint> {
        let mut forced: Option<Taint> = None;
        let mut cand: Option<Taint> = None;
        let mut sanitized = false;
        let mut k = 0usize;
        while k < slice.len() {
            if let Some(id) = slice[k].ident() {
                // A source in a parser fn — and in *any* fn when it decodes
                // one of the fn's own byte-slice parameters: a helper like
                // `fn read_u32(bytes: &[u8], off) -> Option<u32>` hands a
                // header field to its callers whatever it is named.
                let decodes_param = || {
                    let args =
                        &slice[(k + 1).min(slice.len())..skip_group(slice, k + 1).min(slice.len())];
                    args.iter().any(|t| t.ident().is_some_and(|a| self.slice_params.contains(a)))
                };
                if FROM_BYTES.contains(&id) && (self.parser || decodes_param()) {
                    // The qualifier sits before the `::` pair: `u32 : : id`.
                    let qual = (k >= 3 && slice[k - 1].is_punct(':') && slice[k - 2].is_punct(':'))
                        .then(|| slice[k - 3].ident())
                        .flatten();
                    let width = qual.and_then(int_width).unwrap_or(64);
                    let qual = qual.unwrap_or("?");
                    forced =
                        Taint::max(forced, Some(Taint { width, via: format!("{qual}::{id}") }));
                } else if is_sanitizer_method(id) {
                    sanitized = true;
                } else if let Some(t) = self.tainted.get(id) {
                    cand = Taint::max(cand, Some(t.clone()));
                } else if self.buffers.contains(id)
                    && slice.get(k + 1).is_some_and(|t| t.is_punct('['))
                {
                    let end = skip_group(slice, k + 1);
                    if !has_range(&slice[k + 1..end]) {
                        cand = Taint::max(
                            cand,
                            Some(Taint { width: 8, via: format!("byte of `{id}`") }),
                        );
                    }
                } else if slice.get(k + 1).is_some_and(|t| t.is_punct('(')) {
                    let qual = (k >= 3 && slice[k - 1].is_punct(':') && slice[k - 2].is_punct(':'))
                        .then(|| slice[k - 3].ident())
                        .flatten();
                    if let Some(t) = call_summary(self.index, id, qual, self.summaries) {
                        cand = Taint::max(cand, Some(t));
                    }
                }
            }
            k += 1;
        }
        forced.or(if sanitized { None } else { cand })
    }

    fn note_summary(&mut self, t: Option<Taint>) {
        self.summary = Taint::max(self.summary.take(), t);
    }

    /// The main walk. Returns the fn's computed return-taint summary.
    fn walk(&mut self) -> Option<Taint> {
        let (bs, be) = self.info.body?;
        let end = be.saturating_sub(1).min(self.toks.len());
        let mut i = bs + 1;
        while i < end {
            let line = self.toks[i].line;
            // Apply call-summary taints once the walk passes the call.
            while let Some(pos) = self.pending.iter().position(|(at, _)| *at <= i) {
                let (_, t) = self.pending.remove(pos);
                self.note_taint(t, line);
            }
            match &self.toks[i].kind {
                TokKind::Punct('#') => {
                    // Attributes: skip, as the extractor does.
                    let mut j = i + 1;
                    if j < end && self.toks[j].is_punct('!') {
                        j += 1;
                    }
                    if j < end && self.toks[j].is_punct('[') {
                        i = skip_group(self.toks, j);
                    } else {
                        i += 1;
                    }
                }
                TokKind::Ident(id) => {
                    i = self.on_ident(i, end, id.clone(), line);
                }
                TokKind::Punct('.') => {
                    i = self.on_dot(i, end, line);
                }
                TokKind::Punct('[') => {
                    i = self.on_bracket(i, line);
                }
                TokKind::Punct(']') => {
                    self.bracket_depth = self.bracket_depth.saturating_sub(1);
                    i += 1;
                }
                TokKind::Punct('(') => {
                    self.paren_depth += 1;
                    self.at_stmt_start = false;
                    i += 1;
                }
                TokKind::Punct(')') => {
                    self.paren_depth = self.paren_depth.saturating_sub(1);
                    i += 1;
                }
                TokKind::Punct(';') => {
                    if self.paren_depth == 0 && self.bracket_depth == 0 {
                        self.end_statement();
                    }
                    i += 1;
                }
                TokKind::Punct('{') | TokKind::Punct('}') => {
                    self.reg = None;
                    self.at_stmt_start = true;
                    i += 1;
                }
                TokKind::Punct(',') => {
                    self.reg = None;
                    i += 1;
                }
                TokKind::Punct('=') => {
                    // `=>` match arms, `==` equality (non-sanitizing), `=`.
                    self.reg = None;
                    if self.toks.get(i + 1).is_some_and(|t| t.is_punct('>') || t.is_punct('=')) {
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                TokKind::Punct('!') => {
                    // `!=` equality: non-sanitizing comparison.
                    self.reg = None;
                    if self.toks.get(i + 1).is_some_and(|t| t.is_punct('=')) {
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                TokKind::Punct('<') | TokKind::Punct('>') => {
                    i = self.on_angle(i, end, line);
                }
                TokKind::Punct('+') | TokKind::Punct('-') | TokKind::Punct('*') => {
                    i = self.on_arith(i, end, line);
                }
                TokKind::Punct('&') | TokKind::Punct('|') => {
                    // `&&`/`||` end a boolean operand; a lone `&` borrow
                    // keeps the expression register.
                    if self.toks.get(i + 1).map(|t| t.kind == self.toks[i].kind).unwrap_or(false) {
                        self.reg = None;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                TokKind::Punct('?') => {
                    i += 1;
                }
                _ => {
                    self.at_stmt_start = false;
                    i += 1;
                }
            }
        }
        self.summary.clone()
    }

    fn on_ident(&mut self, i: usize, end: usize, id: String, line: usize) -> usize {
        let starts_stmt = self.at_stmt_start;
        self.at_stmt_start = false;
        if id == "let" && starts_stmt {
            self.collect_let_targets(i + 1, end);
            return i + 1;
        }
        if id == "as" {
            return self.on_cast(i, line);
        }
        if id == "return" {
            let stop = stmt_end(self.toks, i + 1, end);
            let t = self.scan_expr_taint(&self.toks[i + 1..stop]);
            self.note_summary(t);
            self.reg = None;
            return i + 1;
        }
        // Macro invocation.
        if self.toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && !self.toks.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            if crate::graph::SKIPPED_MACROS.contains(&id.as_str()) {
                let j = i + 2;
                return if j < end { skip_group(self.toks, j) } else { j };
            }
            if id == "vec" && self.toks.get(i + 2).is_some_and(|t| t.is_punct('[')) {
                self.check_alloc_group(i + 2, "vec![..]", line);
            }
            return i + 2;
        }
        // Path `a::b::c`.
        let mut segs = vec![id.clone()];
        let mut j = i + 1;
        while j + 2 < end
            && self.toks[j].is_punct(':')
            && self.toks[j + 1].is_punct(':')
            && matches!(self.toks[j + 2].kind, TokKind::Ident(_))
        {
            if let TokKind::Ident(s) = &self.toks[j + 2].kind {
                segs.push(s.clone());
            }
            j += 3;
        }
        let after = skip_turbofish(self.toks, j);
        let is_call = self.toks.get(after).is_some_and(|t| t.is_punct('('));
        if is_call {
            let callee = segs.last().cloned().unwrap_or_default();
            let qual = if segs.len() >= 2 { Some(segs[segs.len() - 2].clone()) } else { None };
            if FROM_BYTES.contains(&callee.as_str()) {
                if self.parser {
                    let width = qual.as_deref().and_then(int_width).unwrap_or(64);
                    let via = format!("{}::{}", qual.as_deref().unwrap_or("?"), callee);
                    self.note_taint(Taint { width, via }, line);
                }
                // The argument group is byte-plumbing (`buf[8..16].try_into()`
                // array conversion), not value flow: skip it whole.
                return skip_group(self.toks, after);
            }
            if is_sanitizer_method(&callee) {
                self.sanitize_expr();
                return skip_group(self.toks, after);
            }
            if callee == "with_capacity" || callee == "reserve" {
                let what = match &qual {
                    Some(q) => format!("{q}::{callee}"),
                    None => callee.clone(),
                };
                self.check_alloc_group(after, &what, line);
            }
            if segs.len() == 1 && (id == "Ok" || id == "Some") {
                let close = skip_group(self.toks, after);
                let t = self.scan_expr_taint(&self.toks[after + 1..close.saturating_sub(1)]);
                self.note_summary(t);
            }
            if let Some(t) = call_summary(self.index, &callee, qual.as_deref(), self.summaries) {
                self.pending.push((skip_group(self.toks, after), t));
            }
            return j.max(after);
        }
        // Plain identifier use.
        if starts_stmt {
            // `x = ...` / `x += ...`: record the assignment target.
            let next = self.toks.get(i + 1);
            let is_plain_assign = next.is_some_and(|t| t.is_punct('='))
                && !self.toks.get(i + 2).is_some_and(|t| t.is_punct('='));
            let is_compound = next
                .is_some_and(|t| matches!(t.kind, TokKind::Punct('+' | '-' | '*' | '/' | '%')))
                && self.toks.get(i + 2).is_some_and(|t| t.is_punct('='));
            if is_plain_assign || is_compound {
                self.targets.push(id.clone());
                if is_plain_assign {
                    return i + 1; // the lvalue is not a use
                }
            }
        }
        if let Some(t) = self.tainted.get(&id).cloned() {
            self.note_taint(t, line);
        } else if self.buffers.contains(&id) {
            let next = self.toks.get(j.max(i + 1));
            if !next.is_some_and(|t| t.is_punct('.')) {
                self.stmt_buf = true;
            }
            self.reg = None;
        } else {
            self.reg = None;
        }
        j.max(i + 1)
    }

    /// `.method(..)` handling: sanitizers, buffer fills, allocs, summaries.
    fn on_dot(&mut self, i: usize, end: usize, line: usize) -> usize {
        let Some(TokKind::Ident(m)) = self.toks.get(i + 1).map(|t| &t.kind) else {
            // `..` range or `.await`.
            return i + 1;
        };
        let m = m.clone();
        let after = skip_turbofish(self.toks, i + 2);
        if !self.toks.get(after).is_some_and(|t| t.is_punct('(')) {
            // Field access keeps the expression register: a field of a
            // tainted struct value is tainted.
            return i + 2;
        }
        if is_sanitizer_method(&m) {
            self.sanitize_expr();
            return skip_group(self.toks, after).min(end);
        }
        if READ_FILLS.contains(&m.as_str()) && self.parser {
            // `r.read_exact(&mut buf)` fills `buf` from outside.
            let close = skip_group(self.toks, after);
            let mut k = after;
            while k + 1 < close {
                if self.toks[k].is_ident("mut") {
                    if let Some(n) = self.toks[k + 1].ident() {
                        self.buffers.insert(n.to_string());
                    }
                }
                k += 1;
            }
            return after;
        }
        if m == "with_capacity" || m == "reserve" {
            self.check_alloc_group(after, &format!(".{m}"), line);
            return after;
        }
        if let Some(t) = call_summary(self.index, &m, None, self.summaries) {
            self.pending.push((skip_group(self.toks, after), t));
        }
        after
    }

    /// `x as T` casts: flag narrowing of a tainted value, clear on u128.
    fn on_cast(&mut self, i: usize, line: usize) -> usize {
        let target = self.toks.get(i + 1).and_then(Token::ident);
        let Some(width) = target.and_then(int_width) else {
            return i + 1; // pointer / alias / float cast: no verdict
        };
        if width >= 128 {
            // Widening to 128-bit arithmetic is the sanctioned overflow-free
            // idiom (the PR 7 `parse_header` fix).
            self.sanitize_expr();
            return i + 2;
        }
        if let Some(t) = self.reg.clone() {
            if width < t.width {
                self.report(
                    TaintRule::Cast,
                    line,
                    format!(
                        "truncating cast of tainted {}-bit value to {} (via {}); \
                         use try_into with a diagnostic or a dominating bounds check",
                        t.width,
                        target.unwrap_or("?"),
                        t.via
                    ),
                );
            }
            self.reg = Some(Taint { width: width.min(t.width), via: t.via });
        }
        i + 2
    }

    /// `<`/`>`: shifts are arith sinks, ordered comparisons are sanitizers.
    fn on_angle(&mut self, i: usize, end: usize, line: usize) -> usize {
        let c = if self.toks[i].is_punct('<') { '<' } else { '>' };
        let next = self.toks.get(i + 1);
        if c == '<' && next.is_some_and(|t| t.is_punct('<')) {
            // `<<` shift: an arith sink.
            self.check_arith_operands(i, i + 2, "<<", line);
            return i + 2;
        }
        if c == '>' && next.is_some_and(|t| t.is_punct('>')) {
            return i + 2; // `>>` reduces magnitude: not a sink
        }
        let cmp_end = if next.is_some_and(|t| t.is_punct('=')) { i + 2 } else { i + 1 };
        // An ordered comparison bounds its tainted operands: straight-line
        // parser code checks, then uses. Generic brackets never have a
        // tainted operand, so they fall through harmlessly.
        for k in [i.checked_sub(1), Some(cmp_end.min(end))].into_iter().flatten() {
            if let Some(id) = self.toks.get(k).and_then(Token::ident) {
                self.tainted.remove(id);
            }
        }
        self.reg = None;
        cmp_end
    }

    /// `+`/`-`/`*`: binary uses with a tainted wide operand are sinks.
    fn on_arith(&mut self, i: usize, end: usize, line: usize) -> usize {
        let op = match self.toks[i].kind {
            TokKind::Punct(c) => c,
            _ => '+',
        };
        if op == '-' && self.toks.get(i + 1).is_some_and(|t| t.is_punct('>')) {
            return i + 2; // `->` return-type arrow
        }
        // Binary only if the previous token can end an expression.
        let binary = i > 0
            && match &self.toks[i - 1].kind {
                TokKind::Ident(p) => !crate::graph::is_keyword(p),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                TokKind::Literal => true,
                _ => false,
            };
        if !binary {
            return i + 1;
        }
        let rhs = if self.toks.get(i + 1).is_some_and(|t| t.is_punct('=')) { i + 2 } else { i + 1 };
        self.check_arith_operands(i, rhs.min(end), &op.to_string(), line);
        i + 1
    }

    fn check_arith_operands(&mut self, i: usize, rhs: usize, op: &str, line: usize) {
        let lhs_taint = i.checked_sub(1).and_then(|k| self.taint_of(&self.toks[k])).cloned();
        let rhs_taint = self.toks.get(rhs).and_then(|t| self.taint_of(t)).cloned();
        for (t, side) in [(lhs_taint, "left"), (rhs_taint, "right")] {
            if let Some(t) = t {
                if t.width >= 32 {
                    self.report(
                        TaintRule::Arith,
                        line,
                        format!(
                            "unchecked `{op}` on tainted {}-bit {side} operand (via {}); \
                             use checked_*/saturating_* or widen to u128",
                            t.width, t.via
                        ),
                    );
                    return; // one finding per operator site
                }
            }
        }
    }

    /// `expr[..]` indexing: a tainted index of width ≥ 16 is a sink; a byte
    /// pulled out of a tainted buffer is a width-8 source.
    fn on_bracket(&mut self, i: usize, line: usize) -> usize {
        let indexes = i > 0
            && match &self.toks[i - 1].kind {
                TokKind::Ident(p) => !crate::graph::is_keyword(p),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
        self.at_stmt_start = false;
        if !indexes {
            self.bracket_depth += 1;
            return i + 1;
        }
        let close = skip_group(self.toks, i);
        let body = &self.toks[i + 1..close.saturating_sub(1)];
        // Sink: a tainted wide index, unless a sanitizer rides along.
        let mut sink: Option<Taint> = None;
        for t in body {
            if let Some(id) = t.ident() {
                if is_sanitizer_method(id) {
                    sink = None;
                    break;
                }
                if let Some(tt) = self.tainted.get(id) {
                    if tt.width >= 16 {
                        sink = Taint::max(sink, Some(tt.clone()));
                    }
                }
            }
        }
        if let Some(t) = sink {
            self.report(
                TaintRule::Index,
                line,
                format!(
                    "indexing by tainted {}-bit value (via {}); \
                     use get() or a preceding range check",
                    t.width, t.via
                ),
            );
        }
        // Source: one byte out of a tainted buffer; a range slice of a
        // tainted buffer stays a buffer.
        let receiver = self.toks[i - 1].ident();
        if let Some(r) = receiver {
            if self.buffers.contains(r) {
                if has_range(body) {
                    self.stmt_buf = true;
                    self.reg = None;
                } else {
                    self.note_taint(Taint { width: 8, via: format!("byte of `{r}`") }, line);
                }
            }
        }
        self.bracket_depth += 1;
        i + 1
    }

    /// Flags an allocation group whose size argument carries wide taint and
    /// no clamp.
    fn check_alloc_group(&mut self, open: usize, what: &str, line: usize) {
        let close = skip_group(self.toks, open);
        let body = &self.toks[open + 1..close.saturating_sub(1)];
        let mut worst: Option<Taint> = None;
        for t in body {
            if let Some(id) = t.ident() {
                if is_sanitizer_method(id) {
                    return; // clamped: `n.min(BUDGET)` and friends
                }
                if let Some(tt) = self.tainted.get(id) {
                    if tt.width >= 32 {
                        worst = Taint::max(worst, Some(tt.clone()));
                    }
                }
            }
        }
        if let Some(t) = worst {
            self.report(
                TaintRule::Alloc,
                line,
                format!(
                    "{what} sized by tainted {}-bit value (via {}); \
                     clamp against a declared budget before allocating",
                    t.width, t.via
                ),
            );
        }
    }

    /// Collects the binding targets of a `let` statement (lowercase idents
    /// before the `:`/`=`, so enum constructors in patterns are skipped).
    fn collect_let_targets(&mut self, mut j: usize, end: usize) {
        while j < end {
            match &self.toks[j].kind {
                TokKind::Ident(id) => {
                    if id == "mut" || id == "ref" {
                        j += 1;
                        continue;
                    }
                    if crate::graph::is_keyword(id) {
                        break;
                    }
                    if id.starts_with(|c: char| c.is_lowercase() || c == '_') {
                        self.targets.push(id.clone());
                    }
                    j += 1;
                }
                TokKind::Punct(',' | '(' | ')' | '[' | ']' | '&' | '_') => j += 1,
                _ => break,
            }
        }
    }
}

/// The index of the `;` (or `{`) ending the statement starting at `i`.
fn stmt_end(toks: &[Token], mut i: usize, end: usize) -> usize {
    let mut depth = 0usize;
    while i < end {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth = depth.saturating_sub(1),
            TokKind::Punct(';') | TokKind::Punct('{') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    end
}

/// Whether a token slice contains a `..` range.
fn has_range(slice: &[Token]) -> bool {
    slice.windows(2).any(|w| w[0].is_punct('.') && w[1].is_punct('.'))
}

/// Taint-checks one file's source in isolation under a virtual path. This
/// is the seam the fixture suite drives.
pub fn taint_source(rel: &Path, source: &str) -> Vec<TaintFinding> {
    taint(&Index::build(&[(rel.to_path_buf(), source.to_string())])).findings
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn taint_lib(src: &str) -> Vec<TaintFinding> {
        taint_source(Path::new("crates/string-store/src/example.rs"), src)
    }

    fn of_rule(findings: &[TaintFinding], rule: TaintRule) -> Vec<&TaintFinding> {
        findings.iter().filter(|f| f.rule == rule).collect()
    }

    #[test]
    fn from_le_bytes_cast_to_usize_is_flagged_in_parser_fns() {
        // The packed_store.rs:301 shape: a u64 header field silently
        // truncated to usize. The try_into inside the argument group is
        // slice→array plumbing and must NOT sanitize.
        let src = "\
fn parse_header(buf: &[u8]) -> usize {
    let len = u64::from_le_bytes(buf[8..16].try_into().unwrap_or([0; 8])) as usize;
    len
}
";
        let f = taint_lib(src);
        let casts = of_rule(&f, TaintRule::Cast);
        assert_eq!(casts.len(), 1, "{f:?}");
        assert_eq!(casts[0].line, 2);
        assert!(casts[0].message.contains("u64::from_le_bytes"), "{}", casts[0].message);
        // Harness crates are not the product: the same parser there is not
        // analysed.
        for rel in ["examples/x.rs", "tests/src/lib.rs", "crates/bench/src/lib.rs"] {
            assert!(taint_source(Path::new(rel), src).is_empty(), "{rel}");
        }
    }

    #[test]
    fn u32_to_usize_is_not_a_truncation() {
        let src = "\
fn parse_count(buf: &[u8]) -> usize {
    u32::from_le_bytes(buf[0..4].try_into().unwrap_or([0; 4])) as usize
}
";
        assert!(taint_lib(src).is_empty(), "{:?}", taint_lib(src));
    }

    #[test]
    fn try_from_sanitizes_the_binding() {
        let src = "\
fn parse_header(buf: &[u8]) -> usize {
    let raw = u64::from_le_bytes(buf[0..8].try_into().unwrap_or([0; 8]));
    let len = usize::try_from(raw).unwrap_or(0);
    len + 1
}
";
        assert!(taint_lib(src).is_empty(), "{:?}", taint_lib(src));
    }

    #[test]
    fn arith_on_tainted_value_is_flagged() {
        let src = "\
fn parse_header(buf: &[u8]) -> u64 {
    let len = u64::from_le_bytes(buf[0..8].try_into().unwrap_or([0; 8]));
    len * 8
}
";
        let f = taint_lib(src);
        assert_eq!(of_rule(&f, TaintRule::Arith).len(), 1, "{f:?}");
    }

    #[test]
    fn widening_to_u128_sanitizes_arith() {
        // The PR 7 parse_header idiom: 128-bit math cannot overflow on
        // 64-bit inputs.
        let src = "\
fn parse_header(buf: &[u8]) -> u128 {
    let len = u64::from_le_bytes(buf[0..8].try_into().unwrap_or([0; 8]));
    (len as u128 - 1) * 3
}
";
        assert!(taint_lib(src).is_empty(), "{:?}", taint_lib(src));
    }

    #[test]
    fn narrow_taint_is_carried_but_not_flagged() {
        // Single header bytes (width 8) cannot overflow 64-bit arithmetic
        // or request gigabytes.
        let src = "\
fn parse_header(buf: &[u8]) -> usize {
    let alen = buf[7] as usize;
    let mut symbols = vec![0u8; alen];
    symbols.len() + alen
}
";
        assert!(taint_lib(src).is_empty(), "{:?}", taint_lib(src));
    }

    #[test]
    fn tainted_allocation_size_is_flagged_and_clamp_sanitizes() {
        let deny = "\
fn parse_table(buf: &[u8]) -> Vec<u32> {
    let count = u32::from_le_bytes(buf[0..4].try_into().unwrap_or([0; 4])) as usize;
    Vec::with_capacity(count)
}
";
        let f = taint_lib(deny);
        assert_eq!(of_rule(&f, TaintRule::Alloc).len(), 1, "{f:?}");
        let allow = "\
fn parse_table(buf: &[u8]) -> Vec<u32> {
    let count = u32::from_le_bytes(buf[0..4].try_into().unwrap_or([0; 4])) as usize;
    Vec::with_capacity(count.min(1024))
}
";
        assert!(taint_lib(allow).is_empty(), "{:?}", taint_lib(allow));
    }

    #[test]
    fn tainted_index_is_flagged_and_bounds_check_sanitizes() {
        let deny = "\
fn parse_entry(buf: &[u8], table: &[u32]) -> u32 {
    let slot = u16::from_le_bytes(buf[0..2].try_into().unwrap_or([0; 2])) as usize;
    table[slot]
}
";
        let f = taint_lib(deny);
        assert_eq!(of_rule(&f, TaintRule::Index).len(), 1, "{f:?}");
        let allow = "\
fn parse_entry(buf: &[u8], table: &[u32]) -> u32 {
    let slot = u16::from_le_bytes(buf[0..2].try_into().unwrap_or([0; 2])) as usize;
    if slot >= table.len() {
        return 0;
    }
    table[slot]
}
";
        assert!(taint_lib(allow).is_empty(), "{:?}", taint_lib(allow));
    }

    #[test]
    fn equality_does_not_sanitize() {
        // `count == 0` guards emptiness, not magnitude: the allocation stays
        // hostile-sized on the non-zero path.
        let src = "\
fn parse_table(buf: &[u8]) -> Vec<u32> {
    let count = u32::from_le_bytes(buf[0..4].try_into().unwrap_or([0; 4])) as usize;
    if count == 0 {
        return Vec::new();
    }
    Vec::with_capacity(count)
}
";
        let f = taint_lib(src);
        assert_eq!(of_rule(&f, TaintRule::Alloc).len(), 1, "{f:?}");
    }

    #[test]
    fn summaries_propagate_taint_to_callers_with_chain() {
        // read_u32 carries a source directive; the caller is not a parser
        // fn by name but still receives the tainted width-32 summary.
        let src = "\
// era-check: source
fn read_u32(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[0..4].try_into().unwrap_or([0; 4]))
}
fn build(buf: &[u8]) -> Vec<u32> {
    let n = read_u32(buf) as usize;
    Vec::with_capacity(n)
}
";
        let f = taint_lib(src);
        let allocs = of_rule(&f, TaintRule::Alloc);
        assert_eq!(allocs.len(), 1, "{f:?}");
        assert!(allocs[0].message.contains("read_u32"), "{}", allocs[0].message);
    }

    #[test]
    fn ok_wrapped_returns_carry_summaries() {
        let src = "\
fn parse_len(buf: &[u8]) -> Result<u64, ()> {
    Ok(u64::from_le_bytes(buf[0..8].try_into().unwrap_or([0; 8])))
}
fn build(buf: &[u8]) -> u64 {
    let n = parse_len(buf).unwrap_or(0);
    n * 16
}
";
        let f = taint_lib(src);
        let arith = of_rule(&f, TaintRule::Arith);
        assert_eq!(arith.len(), 1, "{f:?}");
        assert!(arith[0].message.contains("parse_len"), "{}", arith[0].message);
    }

    #[test]
    fn sanitized_directive_cleans_while_allow_only_suppresses() {
        // `sanitized(taint)` asserts out-of-band validation: the binding
        // `a` enters clean and downstream uses are quiet. `allow(taint-arith)`
        // suppresses only its own site: `b` stays tainted, so the final
        // `a + b` still fires — through `b`, not `a`.
        let src = "\
fn parse_header(buf: &[u8]) -> u64 {
    let len = u64::from_le_bytes(buf[0..8].try_into().unwrap_or([0; 8]));
    // era-check: sanitized(taint): the caller rejects files over 4 KiB first
    let a = len * 8;
    // era-check: allow(taint-arith): offsets of a validated layout fit in u64
    let b = len * 16;
    a + b
}
";
        let f = taint_lib(src);
        assert_eq!(f.len(), 1, "only the unannotated `a + b` remains: {f:?}");
        assert_eq!(f[0].rule, TaintRule::Arith);
        assert_eq!(f[0].line, 7);
    }

    #[test]
    fn non_parser_fns_have_no_intrinsic_sources() {
        let src = "\
fn pack(buf: &[u8]) -> usize {
    let len = u64::from_le_bytes(buf[0..8].try_into().unwrap_or([0; 8])) as usize;
    len
}
";
        assert!(taint_lib(src).is_empty(), "{:?}", taint_lib(src));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn parse_header(buf: &[u8]) -> usize {
        u64::from_le_bytes(buf[0..8].try_into().unwrap()) as usize
    }
}
";
        assert!(taint_lib(src).is_empty(), "{:?}", taint_lib(src));
    }

    #[test]
    fn report_carries_stats() {
        let src = "\
// era-check: source
fn read_u32(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[0..4].try_into().unwrap_or([0; 4]))
}
fn consume(buf: &[u8]) -> u32 {
    read_u32(buf)
}
";
        let report =
            taint(&Index::build(&[(PathBuf::from("crates/core/src/x.rs"), src.to_string())]));
        assert_eq!(report.files, 1);
        assert_eq!(report.fns, 2);
        assert!(report.call_edges >= 1, "{report:?}");
        assert!(report.tainted_flows >= 1, "{report:?}");
    }

    #[test]
    fn every_rule_has_a_stable_name() {
        for &rule in TaintRule::ALL {
            assert!(rule.name().starts_with("taint-"));
        }
        assert_eq!(TaintRule::ALL.len(), 4);
    }
}
