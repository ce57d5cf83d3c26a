//! Pass 3 of the semantic analyzer: the workspace call graph.
//!
//! Built on the item trees ([`crate::items`]) of every library file under
//! `crates/`, this module extracts one [`FnNode`] per function — free
//! functions and `impl`/`trait` methods, `#[cfg(test)]` items excluded —
//! and one [`CallSite`] list per function body. Call resolution is
//! deliberately *lint-grade*:
//!
//! * **Free calls** (`helper(…)`) resolve to same-file functions first
//!   (a shadowed local always wins over a same-named `pub` elsewhere),
//!   then to every free function of that name in the workspace.
//! * **Qualified calls** (`Type::method(…)`, `Self::method(…)`,
//!   `module::helper(…)`) resolve through the `impl`/`trait` self-type
//!   when the qualifier names one, and fall back to free-function
//!   resolution for lowercase module-path qualifiers.
//! * **Method calls** (`value.method(…)`) resolve by name against every
//!   `impl`/`trait` block in the workspace, narrowed to self types whose
//!   name appears somewhere in the calling file (an import-less proxy
//!   for "this type is in scope here"); when no candidate survives the
//!   narrowing, every same-named method stays a target.
//!
//! Anything that resolves to no workspace function — std and vendored
//! callees, macro invocations, closure parameters — is recorded as an
//! **opaque** edge: reachability does not continue through it, but its
//! rendered label (`Vec::new`, `.collect`, `panic!`) is exactly what the
//! reachability rules L9–L11 match their forbidden constructs against.
//! Known false-negative classes of this scheme are documented in
//! DESIGN.md ("Interprocedural pass: call graph & reachability").
//!
//! Statements and items under `#[cfg(test)]` or a `#[cfg(feature = …)]`
//! gate contribute no call sites: test-only and feature-gated code (the
//! `check-invariants` cross-checkers) is outside the default build the
//! contracts bind.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{ident_at, punct_at, skip_balanced, Item, ItemKind, Tok, TokKind};

/// One function in the workspace call graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// The function's name (raw identifiers arrive folded).
    pub name: String,
    /// The self type of the enclosing `impl`/`trait` block, if any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
}

impl FnNode {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qualified_name(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based source line of the callee name.
    pub line: usize,
    /// Rendered callee: `helper`, `Type::method`, `.method` or `name!`.
    pub label: String,
    /// Resolved [`FnNode`] indices; empty for opaque edges.
    pub targets: Vec<usize>,
}

/// The workspace call graph: functions, their call sites, and the
/// direct-index expression sites rule L10 consumes.
#[derive(Debug, Default)]
pub struct CallGraph {
    fns: Vec<FnNode>,
    calls: Vec<Vec<CallSite>>,
    index_lines: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Build the graph from every collected library file's item tree and
    /// token stream (`(path, items, tokens)` triples).
    pub fn build(files: &[(String, Vec<Item>, Vec<Tok>)]) -> CallGraph {
        let mut fns: Vec<FnNode> = Vec::new();
        // Per file: the indices of its functions, plus the set of idents
        // it mentions (the method-resolution narrowing set).
        let mut file_fns: Vec<Vec<usize>> = Vec::new();
        let mut file_idents: Vec<BTreeSet<&str>> = Vec::new();
        for (path, items, toks) in files {
            let mut here = Vec::new();
            collect_fns(path, items, None, &mut fns, &mut here);
            file_fns.push(here);
            file_idents.push(
                toks.iter()
                    .filter_map(|t| match &t.kind {
                        TokKind::Ident(s) => Some(s.as_str()),
                        TokKind::Punct(_) => None,
                    })
                    .collect(),
            );
        }

        // Name → candidate indices, split by free fns vs methods.
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            if f.self_ty.is_some() {
                methods_by_name.entry(&f.name).or_default().push(idx);
            } else {
                free_by_name.entry(&f.name).or_default().push(idx);
            }
        }

        let mut calls = vec![Vec::new(); fns.len()];
        let mut index_lines = vec![Vec::new(); fns.len()];
        for (file_idx, (path, _, toks)) in files.iter().enumerate() {
            let resolver = Resolver {
                fns: &fns,
                free_by_name: &free_by_name,
                methods_by_name: &methods_by_name,
                file_path: path,
                file_idents: &file_idents[file_idx],
            };
            extract_sites(
                toks,
                &file_fns[file_idx],
                &resolver,
                &mut calls,
                &mut index_lines,
            );
        }

        CallGraph {
            fns,
            calls,
            index_lines,
        }
    }

    /// All functions, indexable by the ids in [`CallSite::targets`].
    pub fn fns(&self) -> &[FnNode] {
        &self.fns
    }

    /// The call sites of function `idx`, in source order.
    pub fn calls(&self, idx: usize) -> &[CallSite] {
        self.calls.get(idx).map_or(&[], Vec::as_slice)
    }

    /// 1-based lines of direct `x[i]` index expressions in function
    /// `idx`'s body (total `[..]` full-range slices excluded).
    pub fn index_lines(&self, idx: usize) -> &[usize] {
        self.index_lines.get(idx).map_or(&[], Vec::as_slice)
    }

    /// Indices of the functions named `name` defined in `path` — how the
    /// `lint.roots` entries bind to graph nodes.
    pub fn named_in_file(&self, path: &str, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.path == path && f.name == name)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Collect [`FnNode`]s depth-first, carrying the enclosing `impl`/`trait`
/// self type; `#[cfg(test)]` subtrees contribute nothing.
fn collect_fns(
    path: &str,
    items: &[Item],
    self_ty: Option<&str>,
    fns: &mut Vec<FnNode>,
    here: &mut Vec<usize>,
) {
    for item in items {
        if item.cfg_test || attr_feature_gated(&item.attrs) {
            continue;
        }
        match item.kind {
            ItemKind::Fn => {
                here.push(fns.len());
                fns.push(FnNode {
                    path: path.to_owned(),
                    name: item.name.clone(),
                    self_ty: self_ty.map(str::to_owned),
                    line: item.line,
                    end_line: item.end_line,
                });
            }
            ItemKind::Impl | ItemKind::Trait => {
                collect_fns(path, &item.children, Some(&item.name), fns, here);
            }
            ItemKind::Module => {
                collect_fns(path, &item.children, None, fns, here);
            }
            _ => {}
        }
    }
}

/// True when an item's attributes gate it behind a cargo feature
/// (`#[cfg(feature = "…")]` without `not(…)`): such items are absent
/// from the default build the reachability contracts bind.
fn attr_feature_gated(attrs: &[String]) -> bool {
    attrs
        .iter()
        .any(|a| a.contains("cfg") && a.contains("feature") && !a.contains("not"))
}

/// Keywords that legally precede a parenthesized expression; an ident in
/// call position matching one of these is control flow, not a call. A
/// *raw*-identifier function named like one of them (`fn r#match`) is
/// therefore invisible to the graph — a documented false-negative class.
const CALL_KEYWORDS: [&str; 12] = [
    "if", "else", "match", "while", "for", "loop", "return", "break", "in", "move", "yield",
    "await",
];

struct Resolver<'a> {
    fns: &'a [FnNode],
    free_by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    methods_by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    file_path: &'a str,
    file_idents: &'a BTreeSet<&'a str>,
}

impl Resolver<'_> {
    /// `helper(…)`: same-file functions win; otherwise every free
    /// function of that name in the workspace.
    fn free(&self, name: &str) -> Vec<usize> {
        let Some(all) = self.free_by_name.get(name) else {
            return Vec::new();
        };
        let local: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.fns[i].path == self.file_path)
            .collect();
        if local.is_empty() {
            all.clone()
        } else {
            local
        }
    }

    /// `value.method(…)`: every same-named method whose self type is
    /// named somewhere in the calling file. When no self type is in
    /// scope the call stays opaque rather than fanning out to every
    /// same-named method in the workspace: a bare `a.max(b)` on a number
    /// must not resolve to some unrelated `SparseMax::max`. The price is
    /// a false-negative class — receivers of types the calling file
    /// never names by ident — documented in DESIGN.md.
    fn method(&self, name: &str) -> Vec<usize> {
        let Some(all) = self.methods_by_name.get(name) else {
            return Vec::new();
        };
        all.iter()
            .copied()
            .filter(|&i| {
                self.fns[i]
                    .self_ty
                    .as_deref()
                    .is_some_and(|ty| self.file_idents.contains(ty))
            })
            .collect()
    }

    /// `Qual::name(…)`, with `Self` rewritten to the caller's self type.
    fn qualified(&self, qual: &str, name: &str, caller_self_ty: Option<&str>) -> Vec<usize> {
        let qual = if qual == "Self" {
            match caller_self_ty {
                Some(ty) => ty,
                None => return Vec::new(),
            }
        } else {
            qual
        };
        let typed: Vec<usize> = self
            .methods_by_name
            .get(name)
            .map(|all| {
                all.iter()
                    .copied()
                    .filter(|&i| self.fns[i].self_ty.as_deref() == Some(qual))
                    .collect()
            })
            .unwrap_or_default();
        if !typed.is_empty() {
            return typed;
        }
        // Lowercase qualifiers are module/crate paths: the target is a
        // free function elsewhere in the workspace.
        if qual.chars().next().is_some_and(char::is_lowercase) {
            return self.free_by_name.get(name).cloned().unwrap_or_default();
        }
        Vec::new()
    }
}

/// Walk one file's token stream, attributing each call site and index
/// expression to the innermost enclosing function from `file_fns`.
fn extract_sites(
    toks: &[Tok],
    file_fns: &[usize],
    resolver: &Resolver<'_>,
    calls: &mut [Vec<CallSite>],
    index_lines: &mut [Vec<usize>],
) {
    // (start_line, end_line, fn index), for innermost-span attribution.
    let spans: Vec<(usize, usize, usize)> = file_fns
        .iter()
        .map(|&i| (resolver.fns[i].line, resolver.fns[i].end_line, i))
        .collect();
    let enclosing = |line_1: usize| -> Option<usize> {
        spans
            .iter()
            .filter(|&&(s, e, _)| s <= line_1 && line_1 <= e)
            .min_by_key(|&&(s, e, _)| e - s)
            .map(|&(_, _, idx)| idx)
    };

    let mut i = 0usize;
    let mut prev_was_fn_kw = false;
    while i < toks.len() {
        // `#[cfg(test)]` / `#[cfg(feature = …)]` on a *statement* (the
        // item parser only sees item-level gates): skip the attribute and
        // the one statement or block it gates.
        if punct_at(toks, i) == Some('#') {
            let start = i;
            let gated = skip_attr(toks, &mut i);
            if gated {
                skip_gated_statement(toks, &mut i);
            }
            if i == start {
                i += 1;
            }
            continue;
        }

        let Some(name) = ident_at(toks, i) else {
            // Direct index expression: `x[…]`, `f(x)[…]`, `x[y][…]`.
            if punct_at(toks, i) == Some('[') && is_index_site(toks, i) {
                if let Some(f) = enclosing(toks[i].line + 1) {
                    index_lines[f].push(toks[i].line + 1);
                }
            }
            i += 1;
            continue;
        };

        if name == "fn" {
            prev_was_fn_kw = true;
            i += 1;
            continue;
        }
        let is_decl = prev_was_fn_kw;
        prev_was_fn_kw = false;

        // Call forms: `name (`, `name ! (…)`, `.name (`, `Qual :: name (`.
        let next = punct_at(toks, i + 1);
        let line_1 = toks[i].line + 1;
        let site = if next == Some('!') && matches!(punct_at(toks, i + 2), Some('(' | '[' | '{')) {
            Some(CallSite {
                line: line_1,
                label: format!("{name}!"),
                targets: Vec::new(),
            })
        } else if next == Some('(') && !is_decl && !CALL_KEYWORDS.contains(&name) {
            if punct_at(toks, i.wrapping_sub(1)) == Some('.') {
                Some(CallSite {
                    line: line_1,
                    label: format!(".{name}"),
                    targets: resolver.method(name),
                })
            } else if punct_at(toks, i.wrapping_sub(1)) == Some(':')
                && punct_at(toks, i.wrapping_sub(2)) == Some(':')
            {
                match ident_at(toks, i.wrapping_sub(3)) {
                    Some(qual) => {
                        let caller_self_ty =
                            enclosing(line_1).and_then(|f| resolver.fns[f].self_ty.clone());
                        Some(CallSite {
                            line: line_1,
                            label: format!("{qual}::{name}"),
                            targets: resolver.qualified(qual, name, caller_self_ty.as_deref()),
                        })
                    }
                    // Turbofish and `<T as Trait>::…` qualifiers: opaque.
                    None => Some(CallSite {
                        line: line_1,
                        label: format!("::{name}"),
                        targets: Vec::new(),
                    }),
                }
            } else {
                Some(CallSite {
                    line: line_1,
                    label: name.to_owned(),
                    targets: resolver.free(name),
                })
            }
        } else {
            None
        };
        if let Some(site) = site {
            if let Some(f) = enclosing(line_1) {
                calls[f].push(site);
            }
        }
        i += 1;
    }
}

/// Skip an attribute starting at the `#` and report whether it is a
/// build-excluding `cfg` gate (`cfg(test)` or a non-`not` feature gate).
fn skip_attr(toks: &[Tok], i: &mut usize) -> bool {
    *i += 1; // '#'
    if punct_at(toks, *i) == Some('!') {
        *i += 1;
    }
    if punct_at(toks, *i) != Some('[') {
        return false;
    }
    let mut text = String::new();
    let mut depth = 0usize;
    while *i < toks.len() {
        match &toks[*i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    *i += 1;
                    break;
                }
            }
            TokKind::Ident(s) => {
                text.push_str(s);
                text.push(' ');
            }
            TokKind::Punct(c) => text.push(*c),
        }
        *i += 1;
    }
    text.contains("cfg")
        && (text.contains("test") || (text.contains("feature") && !text.contains("not")))
}

/// Skip the one statement or braced block a cfg attribute gates: to the
/// first top-level `;`, or past the first balanced `{…}` — whichever the
/// gated code reaches first.
fn skip_gated_statement(toks: &[Tok], i: &mut usize) {
    let mut depth = 0usize;
    while *i < toks.len() {
        match punct_at(toks, *i) {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth = depth.saturating_sub(1),
            Some('{') => {
                skip_balanced(toks, i, '{', '}');
                return;
            }
            Some(';') if depth == 0 => {
                *i += 1;
                return;
            }
            Some('}') if depth == 0 => return, // malformed gate: stop early
            _ => {}
        }
        *i += 1;
    }
}

/// Keywords after which a `[` opens a slice *pattern* (`let [a, b] = …`,
/// `if let [v] = xs`) or a slice *type* (`&mut [u8]`), never an index.
const NON_INDEX_KEYWORDS: [&str; 3] = ["as", "let", "mut"];

/// True when the `[` at `i` opens an index expression: preceded by an
/// identifier or a closing `)`/`]`, and not the total `[..]` full-range
/// slice.
fn is_index_site(toks: &[Tok], i: usize) -> bool {
    let indexable_recv = match toks.get(i.wrapping_sub(1)).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => {
            // A lifetime (`&'a [Id]`) is slice-type syntax, not a value.
            !CALL_KEYWORDS.contains(&s.as_str())
                && !NON_INDEX_KEYWORDS.contains(&s.as_str())
                && punct_at(toks, i.wrapping_sub(2)) != Some('\'')
        }
        Some(TokKind::Punct(')' | ']')) => true,
        _ => false,
    };
    if !indexable_recv {
        return false;
    }
    let full_range = punct_at(toks, i + 1) == Some('.')
        && punct_at(toks, i + 2) == Some('.')
        && punct_at(toks, i + 3) == Some(']');
    !full_range
}
