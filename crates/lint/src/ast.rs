//! AST for the eta-analyzer semantic pass.
//!
//! The tree is deliberately coarser than rustc's: types are kept as
//! raw token text, patterns keep their text plus the names they bind,
//! and generics are skipped entirely. What it models precisely is the
//! part the semantic rules reason about — item structure, function
//! bodies, calls, method calls, indexing, assignments, loops, and
//! macro arguments — with a 1-indexed source line on every node.

/// One parsed source file.
#[derive(Debug, Clone)]
pub struct File {
    pub items: Vec<Item>,
    /// Grammar positions the parser could not make sense of. Empty on
    /// every file in this workspace (asserted by the sweep test);
    /// non-empty means the file was only partially analyzed.
    pub errors: Vec<ParseError>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

#[derive(Debug, Clone)]
pub struct Item {
    /// Raw token text of each `#[…]` attribute (without `#[` / `]`).
    pub attrs: Vec<String>,
    /// `pub`, `pub(crate)`, … — any visibility beyond private.
    pub is_pub: bool,
    pub name: String,
    pub kind: ItemKind,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub enum ItemKind {
    Fn(FnDef),
    /// `mod name { … }`; `mod name;` has no items.
    Mod {
        items: Vec<Item>,
        inline: bool,
    },
    /// `impl Type { … }` / `impl Trait for Type { … }`. `self_ty` is
    /// the main identifier of the implemented type.
    Impl {
        self_ty: String,
        trait_name: Option<String>,
        items: Vec<Item>,
    },
    Trait {
        items: Vec<Item>,
    },
    Struct,
    Enum,
    Union,
    Use {
        tree: String,
    },
    Const {
        init: Option<Expr>,
    },
    Static {
        init: Option<Expr>,
    },
    TypeAlias,
    /// `macro_rules! name { … }` — body is an opaque token tree.
    MacroDef,
    /// Item-position macro invocation (`thread_local! { … }`).
    MacroItem(Expr),
    ExternCrate,
    ExternBlock,
}

impl Item {
    /// True when any attribute is (or contains) `cfg(test)`.
    pub fn is_cfg_test(&self) -> bool {
        self.attrs
            .iter()
            .any(|a| a.contains("cfg") && a.contains("test"))
    }

    /// True for `#[test]` / `#[proptest]`-style attributes.
    pub fn is_test_fn(&self) -> bool {
        self.attrs
            .iter()
            .any(|a| a.trim() == "test" || a.contains("cfg(test)"))
    }
}

#[derive(Debug, Clone)]
pub struct FnDef {
    pub params: Vec<Param>,
    pub has_self: bool,
    /// Raw token text of the return type (`""` for unit).
    pub ret_text: String,
    /// `None` for trait-method declarations and extern fns.
    pub body: Option<Block>,
}

#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name when the pattern is a plain identifier.
    pub name: Option<String>,
    /// Raw token text of the type.
    pub ty_text: String,
}

#[derive(Debug, Clone)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub enum Stmt {
    Let {
        /// Names the pattern binds (best effort).
        names: Vec<String>,
        /// Raw token text of the pattern.
        pat_text: String,
        /// Raw token text of the declared type, if any.
        ty_text: String,
        init: Option<Expr>,
        line: u32,
    },
    Expr {
        expr: Expr,
        /// Whether the statement ended in `;` (tail expressions do not).
        semi: bool,
    },
    Item(Item),
}

#[derive(Debug, Clone)]
pub struct Expr {
    pub kind: ExprKind,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub struct Arm {
    pub pat_names: Vec<String>,
    pub pat_text: String,
    pub guard: Option<Expr>,
    pub body: Expr,
}

#[derive(Debug, Clone)]
pub enum ExprKind {
    /// `a::b::c` (generics dropped; a lone identifier is a 1-segment path).
    Path(Vec<String>),
    Num(String),
    Str(String),
    Char,
    Bool(bool),
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
    },
    Field {
        recv: Box<Expr>,
        name: String,
    },
    Index {
        recv: Box<Expr>,
        index: Box<Expr>,
    },
    Binary {
        op: String,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Unary {
        op: char,
        expr: Box<Expr>,
    },
    /// `lhs = rhs`, `lhs += rhs`, … (`op` includes the `=`).
    Assign {
        op: String,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Cast {
        expr: Box<Expr>,
        ty_text: String,
    },
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
        inclusive: bool,
    },
    /// `&x` / `&mut x`.
    Ref {
        expr: Box<Expr>,
    },
    Deref {
        expr: Box<Expr>,
    },
    Try(Box<Expr>),
    /// `path!(…)`: `args` hold the comma-separated argument exprs when
    /// the macro body parses as such, `semi_args` the `[x; n]` form,
    /// and `raw` the body's token text either way.
    MacroCall {
        path: Vec<String>,
        args: Vec<Expr>,
        raw: String,
    },
    Block(Block),
    Unsafe(Block),
    If {
        cond: Box<Expr>,
        then: Block,
        else_: Option<Box<Expr>>,
    },
    IfLet {
        pat_names: Vec<String>,
        pat_text: String,
        scrutinee: Box<Expr>,
        then: Block,
        else_: Option<Box<Expr>>,
    },
    Match {
        scrutinee: Box<Expr>,
        arms: Vec<Arm>,
    },
    While {
        cond: Box<Expr>,
        body: Block,
    },
    WhileLet {
        pat_names: Vec<String>,
        pat_text: String,
        scrutinee: Box<Expr>,
        body: Block,
    },
    ForLoop {
        pat_names: Vec<String>,
        pat_text: String,
        iter: Box<Expr>,
        body: Block,
    },
    Loop {
        body: Block,
    },
    Closure {
        params: Vec<String>,
        body: Box<Expr>,
    },
    Return(Option<Box<Expr>>),
    Break(Option<Box<Expr>>),
    Continue,
    Tuple(Vec<Expr>),
    Array(Vec<Expr>),
    Repeat {
        elem: Box<Expr>,
        len: Box<Expr>,
    },
    StructLit {
        path: Vec<String>,
        fields: Vec<(String, Expr)>,
        rest: Option<Box<Expr>>,
    },
    /// Tokens the parser recognized as an expression slot but could
    /// not shape (kept so traversals stay total).
    Opaque(String),
}

impl Expr {
    pub fn path_last(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Path(segs) => segs.last().map(|s| s.as_str()),
            _ => None,
        }
    }

    /// Visits this expression and every sub-expression, including
    /// statements of nested blocks (but not nested item bodies).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        let walk_block = |b: &'a Block, f: &mut dyn FnMut(&'a Expr)| {
            for s in &b.stmts {
                match s {
                    Stmt::Let { init, .. } => {
                        if let Some(e) = init {
                            walk_dyn(e, f);
                        }
                    }
                    Stmt::Expr { expr, .. } => walk_dyn(expr, f),
                    Stmt::Item(_) => {}
                }
            }
        };
        match &self.kind {
            ExprKind::Call { callee, args } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Field { recv, .. } => recv.walk(f),
            ExprKind::Index { recv, index } => {
                recv.walk(f);
                index.walk(f);
            }
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Unary { expr, .. }
            | ExprKind::Cast { expr, .. }
            | ExprKind::Ref { expr, .. }
            | ExprKind::Deref { expr }
            | ExprKind::Try(expr) => expr.walk(f),
            ExprKind::Range { lo, hi, .. } => {
                if let Some(e) = lo {
                    e.walk(f);
                }
                if let Some(e) = hi {
                    e.walk(f);
                }
            }
            ExprKind::MacroCall { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Block(b) | ExprKind::Unsafe(b) | ExprKind::Loop { body: b } => {
                walk_block(b, f)
            }
            ExprKind::If { cond, then, else_ } => {
                cond.walk(f);
                walk_block(then, f);
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            ExprKind::IfLet {
                scrutinee,
                then,
                else_,
                ..
            } => {
                scrutinee.walk(f);
                walk_block(then, f);
                if let Some(e) = else_ {
                    e.walk(f);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                scrutinee.walk(f);
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        g.walk(f);
                    }
                    arm.body.walk(f);
                }
            }
            ExprKind::While { cond, body } => {
                cond.walk(f);
                walk_block(body, f);
            }
            ExprKind::WhileLet {
                scrutinee, body, ..
            } => {
                scrutinee.walk(f);
                walk_block(body, f);
            }
            ExprKind::ForLoop { iter, body, .. } => {
                iter.walk(f);
                walk_block(body, f);
            }
            ExprKind::Closure { body, .. } => body.walk(f),
            ExprKind::Return(e) | ExprKind::Break(e) => {
                if let Some(e) = e {
                    e.walk(f);
                }
            }
            ExprKind::Tuple(es) | ExprKind::Array(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            ExprKind::Repeat { elem, len } => {
                elem.walk(f);
                len.walk(f);
            }
            ExprKind::StructLit { fields, rest, .. } => {
                for (_, e) in fields {
                    e.walk(f);
                }
                if let Some(e) = rest {
                    e.walk(f);
                }
            }
            ExprKind::Path(_)
            | ExprKind::Num(_)
            | ExprKind::Str(_)
            | ExprKind::Char
            | ExprKind::Bool(_)
            | ExprKind::Continue
            | ExprKind::Opaque(_) => {}
        }
    }
}

fn walk_dyn<'a>(e: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    let mut g = |x: &'a Expr| f(x);
    e.walk(&mut g);
}

/// Appends the direct sub-expressions of a non-control-flow node to
/// `out` (blocks, branches, loops and closures contribute nothing:
/// walkers that prune subtrees handle those themselves).
pub(crate) fn collect_children<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match &e.kind {
        ExprKind::Call { callee, args } => {
            out.push(callee);
            out.extend(args.iter());
        }
        ExprKind::MethodCall { recv, args, .. } => {
            out.push(recv);
            out.extend(args.iter());
        }
        ExprKind::Field { recv, .. } => out.push(recv),
        ExprKind::Index { recv, index } => {
            out.push(recv);
            out.push(index);
        }
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            out.push(lhs);
            out.push(rhs);
        }
        ExprKind::Unary { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::Ref { expr, .. }
        | ExprKind::Deref { expr }
        | ExprKind::Try(expr) => out.push(expr),
        ExprKind::Range { lo, hi, .. } => {
            if let Some(e) = lo {
                out.push(e);
            }
            if let Some(e) = hi {
                out.push(e);
            }
        }
        ExprKind::Return(e) | ExprKind::Break(e) => {
            if let Some(e) = e {
                out.push(e);
            }
        }
        ExprKind::Tuple(es) | ExprKind::Array(es) => out.extend(es.iter()),
        ExprKind::Repeat { elem, len } => {
            out.push(elem);
            out.push(len);
        }
        ExprKind::StructLit { fields, rest, .. } => {
            out.extend(fields.iter().map(|(_, e)| e));
            if let Some(e) = rest {
                out.push(e);
            }
        }
        _ => {}
    }
}

/// Visits every item in a tree (modules/impls/traits descended).
pub fn walk_items<'a>(items: &'a [Item], f: &mut impl FnMut(&'a Item)) {
    for item in items {
        f(item);
        match &item.kind {
            ItemKind::Mod { items, .. }
            | ItemKind::Impl { items, .. }
            | ItemKind::Trait { items } => walk_items(items, f),
            _ => {}
        }
    }
}

/// Renders an expression back to compact canonical text. Used to key
/// symbolic values in the taint analysis and to quote sites in
/// diagnostics: two occurrences of `self.data.len()` must produce the
/// same string.
pub fn expr_text(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(segs) => segs.join("::"),
        ExprKind::Num(n) => n.clone(),
        ExprKind::Str(s) => format!("{s:?}"),
        ExprKind::Char => "'_'".into(),
        ExprKind::Bool(b) => b.to_string(),
        ExprKind::Call { callee, args } => format!(
            "{}({})",
            expr_text(callee),
            args.iter().map(expr_text).collect::<Vec<_>>().join(",")
        ),
        ExprKind::MethodCall { recv, method, args } => format!(
            "{}.{}({})",
            expr_text(recv),
            method,
            args.iter().map(expr_text).collect::<Vec<_>>().join(",")
        ),
        ExprKind::Field { recv, name } => format!("{}.{}", expr_text(recv), name),
        ExprKind::Index { recv, index } => {
            format!("{}[{}]", expr_text(recv), expr_text(index))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            format!("{}{}{}", expr_text(lhs), op, expr_text(rhs))
        }
        ExprKind::Unary { op, expr } => format!("{op}{}", expr_text(expr)),
        ExprKind::Assign { op, lhs, rhs } => {
            format!("{}{}{}", expr_text(lhs), op, expr_text(rhs))
        }
        ExprKind::Cast { expr, ty_text } => format!("{} as {}", expr_text(expr), ty_text),
        ExprKind::Range { lo, hi, inclusive } => format!(
            "{}{}{}",
            lo.as_deref().map(expr_text).unwrap_or_default(),
            if *inclusive { "..=" } else { ".." },
            hi.as_deref().map(expr_text).unwrap_or_default()
        ),
        ExprKind::Ref { expr, .. } => expr_text(expr),
        ExprKind::Deref { expr } => format!("*{}", expr_text(expr)),
        ExprKind::Try(expr) => format!("{}?", expr_text(expr)),
        ExprKind::MacroCall { path, raw, .. } => format!("{}!({raw})", path.join("::")),
        ExprKind::Tuple(es) => format!(
            "({})",
            es.iter().map(expr_text).collect::<Vec<_>>().join(",")
        ),
        ExprKind::Array(es) => format!(
            "[{}]",
            es.iter().map(expr_text).collect::<Vec<_>>().join(",")
        ),
        ExprKind::Repeat { elem, len } => {
            format!("[{};{}]", expr_text(elem), expr_text(len))
        }
        ExprKind::StructLit { path, .. } => format!("{}{{..}}", path.join("::")),
        ExprKind::Opaque(raw) => raw.clone(),
        _ => "<expr>".into(),
    }
}

/// Strips leading `&`/`*`/parens-like wrappers for receiver matching.
pub fn peel(e: &Expr) -> &Expr {
    match &e.kind {
        ExprKind::Ref { expr, .. } | ExprKind::Deref { expr } => peel(expr),
        _ => e,
    }
}
