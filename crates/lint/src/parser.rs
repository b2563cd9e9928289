//! Tolerant recursive-descent parser producing the [`crate::ast`]
//! tree from the hand-rolled lexer's token stream.
//!
//! Design constraints, in order:
//!
//! 1. **Total**: never panics, never loops forever — every parse
//!    function provably advances or bails via fuel/depth guards, so
//!    the proptest fuzz harness can feed it arbitrary token soup.
//! 2. **Tolerant**: unknown constructs become `ExprKind::Opaque` or a
//!    recorded [`ast::ParseError`] plus resynchronization, never a
//!    hard stop. The workspace sweep test asserts `errors` is empty
//!    on every real file, so tolerance is a fuzz/forward-compat
//!    property, not an excuse for gaps.
//! 3. **Coarse where it can be**: generics, where-clauses, and type
//!    bodies are skipped or kept as text; expression structure —
//!    calls, method calls, indexing, assignment, control flow — is
//!    modeled precisely because S1/S2/S3 reason over it.
//!
//! The lexer emits single-character punctuation, so multi-char
//! operators (`::`, `->`, `=>`, `..`, `&&`, `<<=`) are recognized
//! here by token adjacency.

use crate::ast::{
    Arm, Block, Expr, ExprKind, File, FnDef, Item, ItemKind, Param, ParseError, Stmt,
};
use crate::lexer::{lex, Tok, TokKind};

/// Maximum expression/item/block nesting before the parser bails to
/// `Opaque` — keeps arbitrary fuzz input from overflowing the stack.
const MAX_DEPTH: u32 = 200;

/// Parses one source file. Comments are stripped before parsing (the
/// token-level rules see them separately).
pub fn parse(src: &str) -> File {
    let toks: Vec<Tok> = lex(src)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    parse_tokens(&toks)
}

/// Parses an arbitrary token sequence. Public so the fuzz harness can
/// drive the parser without going through the lexer.
pub fn parse_tokens(toks: &[Tok]) -> File {
    let mut p = Parser {
        toks,
        pos: 0,
        errors: Vec::new(),
        depth: 0,
        fuel: 40 * toks.len() as u64 + 10_000,
    };
    let items = p.parse_items_until_eof();
    File {
        items,
        errors: p.errors,
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    pos: usize,
    errors: Vec<ParseError>,
    depth: u32,
    fuel: u64,
}

impl<'a> Parser<'a> {
    // ---- cursor helpers ---------------------------------------------------

    fn tok(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn nth(&self, n: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + n)
    }

    fn eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn line(&self) -> u32 {
        self.tok()
            .or_else(|| self.toks.last())
            .map_or(1, |t| t.line)
    }

    fn bump(&mut self) {
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        self.fuel = self.fuel.saturating_sub(1);
    }

    fn at_punct(&self, ch: char) -> bool {
        self.tok().is_some_and(|t| t.is_punct(ch))
    }

    fn nth_punct(&self, n: usize, ch: char) -> bool {
        self.nth(n).is_some_and(|t| t.is_punct(ch))
    }

    fn at_ident(&self, name: &str) -> bool {
        self.tok().is_some_and(|t| t.is_ident(name))
    }

    fn nth_ident(&self, n: usize, name: &str) -> bool {
        self.nth(n).is_some_and(|t| t.is_ident(name))
    }

    fn at_any_ident(&self) -> bool {
        self.tok().is_some_and(|t| t.kind == TokKind::Ident)
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if self.at_punct(ch) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, ch: char, ctx: &str) {
        if !self.eat_punct(ch) {
            self.err(format!("expected `{ch}` {ctx}"));
        }
    }

    /// `::` — two adjacent `:` puncts.
    fn at_colons(&self) -> bool {
        self.at_punct(':') && self.nth_punct(1, ':')
    }

    fn err(&mut self, message: String) {
        // Cap recorded errors so fuzz inputs cannot balloon memory.
        if self.errors.len() < 64 {
            self.errors.push(ParseError {
                line: self.line(),
                message,
            });
        }
    }

    fn out_of_fuel(&self) -> bool {
        self.fuel == 0
    }

    /// Renders a token slice back to compact text (idents separated by
    /// a space only where needed; strings re-quoted).
    fn render(toks: &[Tok]) -> String {
        let mut out = String::new();
        for t in toks {
            let piece: String = match t.kind {
                TokKind::Str => format!("\"{}\"", t.text),
                _ => t.text.clone(),
            };
            let needs_space = out
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
                && piece
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if needs_space {
                out.push(' ');
            }
            out.push_str(&piece);
        }
        out
    }

    /// At an opening `(`/`[`/`{`: returns the interior token slice and
    /// advances past the matching closer. Tolerant of EOF.
    fn group_interior(&mut self) -> &'a [Tok] {
        let open = self.pos;
        let mut depth = 0usize;
        let mut i = self.pos;
        while i < self.toks.len() {
            if self.toks[i].kind == TokKind::Punct {
                match self.toks[i].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        if depth <= 1 {
                            let inner = &self.toks[(open + 1).min(i)..i];
                            self.pos = i + 1;
                            self.fuel = self.fuel.saturating_sub((i - open) as u64);
                            return inner;
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        let inner = &self.toks[(open + 1).min(self.toks.len())..];
        self.fuel = self.fuel.saturating_sub((self.toks.len() - open) as u64);
        self.pos = self.toks.len();
        inner
    }

    /// At `<`: skips a balanced generic-argument list. `->` inside
    /// (e.g. `F: Fn(f64) -> f64`) does not close the angle.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while !self.eof() {
            if self.out_of_fuel() {
                return;
            }
            if self.at_punct('-') && self.nth_punct(1, '>') {
                self.bump();
                self.bump();
                continue;
            }
            if self.at_punct('<') {
                depth += 1;
            } else if self.at_punct('>') {
                depth -= 1;
                self.bump();
                if depth <= 0 {
                    return;
                }
                continue;
            } else if self.at_punct('(') || self.at_punct('[') || self.at_punct('{') {
                self.group_interior();
                continue;
            } else if self.at_punct(';') {
                // A `;` at angle depth means the source is broken;
                // bail rather than eat the rest of the file.
                return;
            }
            self.bump();
        }
    }

    /// Collects raw type text until a depth-0 stop punct or stop
    /// ident. Understands `->`, angle brackets, and bracket groups.
    fn collect_type(&mut self, stop_puncts: &[char], stop_idents: &[&str]) -> String {
        let start = self.pos;
        let mut angle = 0i32;
        while !self.eof() {
            if self.out_of_fuel() {
                break;
            }
            let t = match self.tok() {
                Some(t) => t,
                None => break,
            };
            if angle == 0 {
                if t.kind == TokKind::Punct {
                    let c = t.text.chars().next().unwrap_or(' ');
                    // `->` is part of the type even when `-` or `>` stops.
                    let arrow = c == '-' && self.nth_punct(1, '>');
                    if !arrow && (stop_puncts.contains(&c) || matches!(c, ')' | ']' | '}')) {
                        break;
                    }
                }
                if t.kind == TokKind::Ident && stop_idents.contains(&t.text.as_str()) {
                    break;
                }
            }
            if self.at_punct('-') && self.nth_punct(1, '>') {
                self.bump();
                self.bump();
                continue;
            }
            if self.at_punct('<') {
                angle += 1;
            } else if self.at_punct('>') {
                angle = (angle - 1).max(0);
            } else if self.at_punct('(') || self.at_punct('[') || self.at_punct('{') {
                self.group_interior();
                continue;
            }
            self.bump();
        }
        Self::render(&self.toks[start.min(self.pos)..self.pos])
    }

    // ---- attributes -------------------------------------------------------

    /// Collects `#[…]` (and file-inner `#![…]`) attributes at the
    /// cursor; returns their raw interior text.
    fn parse_attrs(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        while self.at_punct('#') {
            let bracket_at = if self.nth_punct(1, '[') {
                1
            } else if self.nth_punct(1, '!') && self.nth_punct(2, '[') {
                2
            } else {
                break;
            };
            for _ in 0..bracket_at {
                self.bump();
            }
            let interior = self.group_interior();
            out.push(Self::render(interior));
        }
        out
    }

    // ---- items ------------------------------------------------------------

    fn parse_items_until_eof(&mut self) -> Vec<Item> {
        let mut items = Vec::new();
        while !self.eof() {
            if self.out_of_fuel() {
                self.err("out of fuel at item position".into());
                break;
            }
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.pos == before {
                self.err(format!(
                    "unexpected token `{}` at item position",
                    self.tok().map(|t| t.text.as_str()).unwrap_or("<eof>")
                ));
                self.bump();
            }
        }
        items
    }

    /// Items inside `{ … }` of a mod/impl/trait: cursor is at `{`.
    fn parse_item_body(&mut self) -> Vec<Item> {
        if !self.eat_punct('{') {
            return Vec::new();
        }
        let mut items = Vec::new();
        while !self.eof() && !self.at_punct('}') {
            if self.out_of_fuel() {
                break;
            }
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.pos == before {
                self.err(format!(
                    "unexpected token `{}` in item body",
                    self.tok().map(|t| t.text.as_str()).unwrap_or("<eof>")
                ));
                self.bump();
            }
        }
        self.expect_punct('}', "to close item body");
        items
    }

    fn parse_item(&mut self) -> Option<Item> {
        self.depth += 1;
        let item = if self.depth > MAX_DEPTH {
            self.err("item nesting too deep".into());
            self.bump();
            None
        } else {
            self.parse_item_inner()
        };
        self.depth -= 1;
        item
    }

    fn parse_item_inner(&mut self) -> Option<Item> {
        let attrs = self.parse_attrs();
        let line = self.line();
        let is_pub = if self.eat_ident("pub") {
            if self.at_punct('(') {
                self.group_interior();
            }
            true
        } else {
            false
        };

        // Function/impl/trait qualifiers, in any sane order.
        loop {
            let single_qualifier = (self.at_ident("const")
                && (self.nth_ident(1, "fn")
                    || self.nth_ident(1, "unsafe")
                    || self.nth_ident(1, "extern")
                    || self.nth_ident(1, "async")))
                || (self.at_ident("unsafe")
                    && (self.nth_ident(1, "fn")
                        || self.nth_ident(1, "extern")
                        || self.nth_ident(1, "impl")
                        || self.nth_ident(1, "trait")))
                || (self.at_ident("async") && self.nth_ident(1, "fn"));
            if single_qualifier {
                self.bump();
            } else if self.at_ident("extern")
                && self.nth(1).is_some_and(|t| t.kind == TokKind::Str)
                && self.nth_ident(2, "fn")
            {
                self.bump();
                self.bump();
            } else {
                break;
            }
        }

        let mk = |name: String, kind: ItemKind| {
            Some(Item {
                attrs,
                is_pub,
                name,
                kind,
                line,
            })
        };

        if self.at_ident("fn") {
            self.bump();
            let name = self.ident_or(String::from("<fn>"));
            let def = self.parse_fn_tail();
            return mk(name, ItemKind::Fn(def));
        }
        if self.at_ident("mod") {
            self.bump();
            let name = self.ident_or(String::from("<mod>"));
            if self.eat_punct(';') {
                return mk(
                    name,
                    ItemKind::Mod {
                        items: Vec::new(),
                        inline: false,
                    },
                );
            }
            let items = self.parse_item_body();
            return mk(
                name,
                ItemKind::Mod {
                    items,
                    inline: true,
                },
            );
        }
        if self.at_ident("use") {
            self.bump();
            let tree = self.collect_until_semi();
            self.eat_punct(';');
            let name = tree
                .rsplit("::")
                .next()
                .unwrap_or(tree.as_str())
                .to_string();
            return mk(name, ItemKind::Use { tree });
        }
        if self.at_ident("struct")
            || self.at_ident("enum")
            || (self.at_ident("union")
                && self.nth(1).is_some_and(|t| t.kind == TokKind::Ident)
                && (self.nth_punct(2, '{') || self.nth_punct(2, '<')))
        {
            let kw = self.tok().map(|t| t.text.clone()).unwrap_or_default();
            self.bump();
            let name = self.ident_or(format!("<{kw}>"));
            if self.at_punct('<') {
                self.skip_angles();
            }
            // `where` clause (possibly before a tuple-struct `;`).
            if self.at_ident("where") {
                self.collect_type(&[';', '{'], &[]);
            }
            if self.at_punct('(') {
                self.group_interior();
                if self.at_ident("where") {
                    self.collect_type(&[';'], &[]);
                }
                self.eat_punct(';');
            } else if self.at_punct('{') {
                self.group_interior();
            } else {
                self.eat_punct(';');
            }
            let kind = match kw.as_str() {
                "struct" => ItemKind::Struct,
                "enum" => ItemKind::Enum,
                _ => ItemKind::Union,
            };
            return mk(name, kind);
        }
        if self.at_ident("trait") {
            self.bump();
            let name = self.ident_or(String::from("<trait>"));
            if self.at_punct('<') {
                self.skip_angles();
            }
            // Supertraits / where clause up to the body.
            self.collect_type(&['{', ';'], &[]);
            let items = self.parse_item_body();
            return mk(name, ItemKind::Trait { items });
        }
        if self.at_ident("impl") {
            self.bump();
            if self.at_punct('<') {
                self.skip_angles();
            }
            self.eat_punct('!'); // negative impl
            let first = self.collect_type(&['{'], &["for", "where"]);
            let (trait_name, self_ty) = if self.eat_ident("for") {
                let ty = self.collect_type(&['{'], &["where"]);
                (Some(main_type_ident(&first)), main_type_ident(&ty))
            } else {
                (None, main_type_ident(&first))
            };
            if self.at_ident("where") {
                self.collect_type(&['{'], &[]);
            }
            let items = self.parse_item_body();
            return mk(
                self_ty.clone(),
                ItemKind::Impl {
                    self_ty,
                    trait_name,
                    items,
                },
            );
        }
        if self.at_ident("type") {
            self.bump();
            let name = self.ident_or(String::from("<type>"));
            self.collect_until_semi();
            self.eat_punct(';');
            return mk(name, ItemKind::TypeAlias);
        }
        if self.at_ident("const") || self.at_ident("static") {
            let is_static = self.at_ident("static");
            self.bump();
            self.eat_ident("mut");
            let name = self.ident_or(String::from("<const>"));
            if self.at_punct(':') {
                self.bump();
                self.collect_type(&['=', ';'], &[]);
            }
            let init = if self.eat_punct('=') {
                Some(self.parse_expr(true))
            } else {
                None
            };
            self.eat_punct(';');
            let kind = if is_static {
                ItemKind::Static { init }
            } else {
                ItemKind::Const { init }
            };
            return mk(name, kind);
        }
        if self.at_ident("extern") {
            self.bump();
            if self.eat_ident("crate") {
                let name = self.ident_or(String::from("<crate>"));
                self.collect_until_semi();
                self.eat_punct(';');
                return mk(name, ItemKind::ExternCrate);
            }
            if self.tok().is_some_and(|t| t.kind == TokKind::Str) {
                self.bump();
            }
            if self.at_punct('{') {
                self.group_interior();
            }
            return mk(String::from("<extern>"), ItemKind::ExternBlock);
        }
        if self.at_ident("macro_rules") && self.nth_punct(1, '!') {
            self.bump();
            self.bump();
            let name = self.ident_or(String::from("<macro>"));
            if self.at_punct('{') || self.at_punct('(') || self.at_punct('[') {
                self.group_interior();
            }
            self.eat_punct(';');
            return mk(name, ItemKind::MacroDef);
        }
        // Item-position macro invocation: `path::name! { … }`.
        if self.at_any_ident() && self.looks_like_macro_item() {
            let expr = self.parse_expr(true);
            let name = match &expr.kind {
                ExprKind::MacroCall { path, .. } => path.last().cloned().unwrap_or_default(),
                _ => String::from("<macro>"),
            };
            self.eat_punct(';');
            return mk(name, ItemKind::MacroItem(expr));
        }
        None
    }

    /// True when the cursor starts `path::seg ! ( … )` — an
    /// item-position macro invocation.
    fn looks_like_macro_item(&self) -> bool {
        let mut i = 0;
        loop {
            if !self.nth(i).is_some_and(|t| t.kind == TokKind::Ident) {
                return false;
            }
            i += 1;
            if self.nth_punct(i, ':') && self.nth_punct(i + 1, ':') {
                i += 2;
                continue;
            }
            return self.nth_punct(i, '!')
                && (self.nth_punct(i + 1, '(')
                    || self.nth_punct(i + 1, '[')
                    || self.nth_punct(i + 1, '{'));
        }
    }

    fn ident_or(&mut self, fallback: String) -> String {
        if let Some(t) = self.tok() {
            if t.kind == TokKind::Ident {
                let name = t.text.clone();
                self.bump();
                return name;
            }
        }
        fallback
    }

    fn collect_until_semi(&mut self) -> String {
        let start = self.pos;
        let mut depth = 0i32;
        while !self.eof() {
            if self.out_of_fuel() {
                break;
            }
            if self.at_punct('{') || self.at_punct('(') || self.at_punct('[') {
                depth += 1;
            } else if self.at_punct('}') || self.at_punct(')') || self.at_punct(']') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && self.at_punct(';') {
                break;
            }
            self.bump();
        }
        Self::render(&self.toks[start.min(self.pos)..self.pos])
    }

    // ---- functions --------------------------------------------------------

    /// Cursor is just past the `fn` name. Parses generics, params,
    /// return type, where clause, and body (or `;`).
    fn parse_fn_tail(&mut self) -> FnDef {
        if self.at_punct('<') {
            self.skip_angles();
        }
        let mut params = Vec::new();
        let mut has_self = false;
        if self.at_punct('(') {
            let interior = self.group_interior();
            (params, has_self) = parse_params(interior);
        } else {
            self.err("expected `(` after fn name".into());
        }
        let mut ret_text = String::new();
        if self.at_punct('-') && self.nth_punct(1, '>') {
            self.bump();
            self.bump();
            ret_text = self.collect_type(&['{', ';'], &["where"]);
        }
        if self.at_ident("where") {
            self.collect_type(&['{', ';'], &[]);
        }
        let body = if self.at_punct('{') {
            Some(self.parse_block())
        } else {
            self.eat_punct(';');
            None
        };
        FnDef {
            params,
            has_self,
            ret_text,
            body,
        }
    }

    // ---- blocks and statements --------------------------------------------

    /// Cursor is at `{`.
    fn parse_block(&mut self) -> Block {
        self.depth += 1;
        let block = if self.depth > MAX_DEPTH || self.out_of_fuel() {
            let line = self.line();
            if self.at_punct('{') {
                self.group_interior();
            }
            Block {
                stmts: Vec::new(),
                line,
            }
        } else {
            self.parse_block_inner()
        };
        self.depth -= 1;
        block
    }

    fn parse_block_inner(&mut self) -> Block {
        let line = self.line();
        self.expect_punct('{', "to open block");
        let mut stmts = Vec::new();
        while !self.eof() && !self.at_punct('}') {
            if self.out_of_fuel() {
                self.err("out of fuel in block".into());
                break;
            }
            let before = self.pos;
            if let Some(stmt) = self.parse_stmt() {
                stmts.push(stmt);
            }
            if self.pos == before {
                self.err(format!(
                    "unexpected token `{}` in block",
                    self.tok().map(|t| t.text.as_str()).unwrap_or("<eof>")
                ));
                self.bump();
            }
        }
        self.expect_punct('}', "to close block");
        Block { stmts, line }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        if self.eat_punct(';') {
            return None;
        }
        // Attributes may precede items, lets, or expressions.
        if self.at_punct('#') {
            let checkpoint = self.pos;
            let _attrs = self.parse_attrs();
            if self.at_stmt_item_start() {
                self.pos = checkpoint;
                return self.parse_item().map(Stmt::Item);
            }
            // Expression/let attribute (`#[allow(…)] let x = …`):
            // attrs are dropped, statement parsed normally.
            if self.at_ident("let") {
                return self.parse_let();
            }
            let expr = self.parse_any_expr_stmt();
            let semi = self.eat_punct(';');
            return Some(Stmt::Expr { expr, semi });
        }
        if self.at_stmt_item_start() {
            return self.parse_item().map(Stmt::Item);
        }
        if self.at_ident("let") {
            return self.parse_let();
        }
        let expr = self.parse_any_expr_stmt();
        let semi = self.eat_punct(';');
        Some(Stmt::Expr { expr, semi })
    }

    /// Statement-position expression. Block-like expressions (`if`,
    /// `match`, loops, plain blocks) terminate the statement without
    /// continuing into binary operators — the Rust rule that makes
    /// `if c { } *p = 1;` two statements.
    fn parse_any_expr_stmt(&mut self) -> Expr {
        let block_like = self.at_punct('{')
            || self.at_ident("if")
            || self.at_ident("match")
            || self.at_ident("while")
            || self.at_ident("loop")
            || self.at_ident("for")
            || (self.at_ident("unsafe") && self.nth_punct(1, '{'))
            || (self.tok().is_some_and(|t| t.kind == TokKind::Lifetime) && self.nth_punct(1, ':'));
        if block_like {
            self.parse_primary(true)
        } else {
            self.parse_expr(true)
        }
    }

    fn at_stmt_item_start(&self) -> bool {
        if self.at_ident("pub")
            || self.at_ident("fn")
            || self.at_ident("use")
            || self.at_ident("struct")
            || self.at_ident("enum")
            || self.at_ident("impl")
            || self.at_ident("trait")
            || self.at_ident("mod")
            || self.at_ident("static")
            || self.at_ident("type")
            || (self.at_ident("macro_rules") && self.nth_punct(1, '!'))
        {
            return true;
        }
        if self.at_ident("const") && !self.nth_punct(1, '{') {
            return true;
        }
        if self.at_ident("unsafe")
            && (self.nth_ident(1, "fn") || self.nth_ident(1, "impl") || self.nth_ident(1, "trait"))
        {
            return true;
        }
        if self.at_ident("extern") {
            return true;
        }
        false
    }

    fn parse_let(&mut self) -> Option<Stmt> {
        let line = self.line();
        self.bump(); // let
        let pat_toks = self.scan_pattern(PatStop::LetEq);
        let names = pat_names(pat_toks);
        let pat_text = Self::render(pat_toks);
        let ty_text = if self.eat_punct(':') {
            self.collect_type(&['=', ';'], &["else"])
        } else {
            String::new()
        };
        let init = if self.at_punct('=') && !self.nth_punct(1, '=') {
            self.bump();
            Some(self.parse_expr(true))
        } else {
            None
        };
        // let-else: the diverging block is surfaced as the init's
        // trailing statement via a synthetic block wrap is overkill —
        // record it as a separate statement by the caller instead.
        if self.at_ident("else") && self.nth_punct(1, '{') {
            self.bump();
            let b = self.parse_block();
            self.eat_punct(';');
            // Keep the else-block visible to the analyses by folding
            // it into an If expression wrapping the init.
            let else_expr = Expr {
                kind: ExprKind::Block(b),
                line,
            };
            let cond = init.unwrap_or(Expr {
                kind: ExprKind::Opaque(String::new()),
                line,
            });
            let folded = Expr {
                kind: ExprKind::If {
                    cond: Box::new(cond),
                    then: Block {
                        stmts: Vec::new(),
                        line,
                    },
                    else_: Some(Box::new(else_expr)),
                },
                line,
            };
            return Some(Stmt::Let {
                names,
                pat_text,
                ty_text,
                init: Some(folded),
                line,
            });
        }
        self.eat_punct(';');
        Some(Stmt::Let {
            names,
            pat_text,
            ty_text,
            init,
            line,
        })
    }
}

/// Picks the "main" identifier out of rendered type text: the last
/// depth-0 non-keyword identifier before any generic arguments —
/// `&'a mut Vec<f32>` → `Vec`, `crate::tensor::Matrix` → `Matrix`.
fn main_type_ident(ty: &str) -> String {
    let mut angle = 0i32;
    let mut last = String::new();
    let mut cur = String::new();
    let flush = |cur: &mut String, last: &mut String, angle: i32| {
        if angle == 0
            && !cur.is_empty()
            && !matches!(
                cur.as_str(),
                "mut" | "dyn" | "const" | "impl" | "for" | "as"
            )
            && !cur.starts_with('\'')
        {
            *last = cur.clone();
        }
        cur.clear();
    };
    for c in ty.chars() {
        if c.is_alphanumeric() || c == '_' || c == '\'' {
            cur.push(c);
        } else {
            flush(&mut cur, &mut last, angle);
            if c == '<' {
                angle += 1;
            } else if c == '>' {
                angle = (angle - 1).max(0);
            }
        }
    }
    flush(&mut cur, &mut last, angle);
    last
}

/// Where a pattern scan stops (always at the pattern's own depth 0).
#[derive(Clone, Copy, PartialEq)]
enum PatStop {
    /// `let`-style: `:`, `=` (single), `;`.
    LetEq,
    /// `for`-style: the `in` keyword.
    In,
    /// match-arm style: `=>` or an `if` guard.
    Arrow,
    /// closure-param style: `:`, `,`, `|`.
    ClosureParam,
}

impl<'a> Parser<'a> {
    /// Scans (without interpreting) a pattern, returning its tokens.
    fn scan_pattern(&mut self, stop: PatStop) -> &'a [Tok] {
        let start = self.pos;
        let mut depth = 0i32;
        while !self.eof() {
            if self.out_of_fuel() {
                break;
            }
            let t = match self.tok() {
                Some(t) => t,
                None => break,
            };
            if t.kind == TokKind::Punct {
                let c = t.text.chars().next().unwrap_or(' ');
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ':' if depth == 0 => {
                        if self.nth_punct(1, ':') {
                            // `::` path separator — part of the pattern.
                            self.bump();
                            self.bump();
                            continue;
                        }
                        if matches!(stop, PatStop::LetEq | PatStop::ClosureParam) {
                            break;
                        }
                    }
                    '=' if depth == 0 => {
                        if stop == PatStop::Arrow {
                            if self.nth_punct(1, '>') {
                                break;
                            }
                        } else if stop == PatStop::LetEq && !self.nth_punct(1, '=') {
                            break;
                        }
                    }
                    ',' | '|' if depth == 0 && stop == PatStop::ClosureParam => break,
                    ';' if depth == 0 => break,
                    _ => {}
                }
            }
            if t.kind == TokKind::Ident && depth == 0 {
                match stop {
                    PatStop::In if t.text == "in" => break,
                    PatStop::Arrow if t.text == "if" => break,
                    _ => {}
                }
            }
            self.bump();
        }
        &self.toks[start.min(self.pos)..self.pos]
    }
}

/// Extracts the names a pattern binds (best effort): lowercase-start
/// identifiers that are not keywords, path segments, struct-field
/// labels, or macro names.
pub(crate) fn pat_names(toks: &[Tok]) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let s = t.text.as_str();
        if s == "_"
            || matches!(
                s,
                "mut"
                    | "ref"
                    | "box"
                    | "move"
                    | "if"
                    | "in"
                    | "self"
                    | "Self"
                    | "crate"
                    | "super"
                    | "true"
                    | "false"
                    | "dyn"
                    | "as"
            )
        {
            continue;
        }
        if s.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            continue;
        }
        let next = toks.get(i + 1);
        let path_like = next.is_some_and(|n| {
            n.is_punct(':') || n.is_punct('(') || n.is_punct('{') || n.is_punct('!')
        });
        if path_like {
            continue;
        }
        if !names.iter().any(|n| n == s) {
            names.push(s.to_string());
        }
    }
    names
}

/// Parses a fn parameter list from its interior tokens.
fn parse_params(toks: &[Tok]) -> (Vec<Param>, bool) {
    let mut p = Parser {
        toks,
        pos: 0,
        errors: Vec::new(),
        depth: 0,
        fuel: 4 * toks.len() as u64 + 64,
    };
    let mut params = Vec::new();
    let mut has_self = false;
    while !p.eof() {
        if p.out_of_fuel() {
            break;
        }
        let before = p.pos;
        p.parse_attrs();
        // self receiver: `self`, `mut self`, `&self`, `&mut self`,
        // `&'a mut self`, optionally typed `self: Box<Self>`.
        let mut look = p.pos;
        if p.toks.get(look).is_some_and(|t| t.is_punct('&')) {
            look += 1;
            if p.toks
                .get(look)
                .is_some_and(|t| t.kind == TokKind::Lifetime)
            {
                look += 1;
            }
        }
        if p.toks.get(look).is_some_and(|t| t.is_ident("mut")) {
            look += 1;
        }
        if p.toks.get(look).is_some_and(|t| t.is_ident("self")) {
            has_self = true;
            p.pos = look + 1;
            if p.at_punct(':') {
                p.bump();
                p.collect_type(&[','], &[]);
            }
            p.eat_punct(',');
            continue;
        }
        let pat = p.scan_pattern(PatStop::ClosureParam);
        let names = pat_names(pat);
        let ty_text = if p.eat_punct(':') {
            p.collect_type(&[','], &[])
        } else {
            String::new()
        };
        let name = if names.len() == 1 {
            Some(names[0].clone())
        } else {
            None
        };
        if !pat.is_empty() || !ty_text.is_empty() {
            params.push(Param { name, ty_text });
        }
        p.eat_punct(',');
        if p.pos == before {
            p.bump();
        }
    }
    (params, has_self)
}

// ---- expressions ----------------------------------------------------------

impl<'a> Parser<'a> {
    fn parse_expr(&mut self, allow_struct: bool) -> Expr {
        self.depth += 1;
        let e = if self.depth > MAX_DEPTH || self.out_of_fuel() {
            self.bail_opaque()
        } else {
            self.parse_expr_inner(allow_struct)
        };
        self.depth -= 1;
        e
    }

    /// Depth/fuel bail-out: consume one token so loops make progress.
    fn bail_opaque(&mut self) -> Expr {
        let line = self.line();
        if self.errors.is_empty() || self.fuel > 0 {
            self.err("expression too deep or out of fuel".into());
        }
        let raw = self.tok().map(|t| t.text.clone()).unwrap_or_default();
        self.bump();
        Expr {
            kind: ExprKind::Opaque(raw),
            line,
        }
    }

    fn at_range_op(&self) -> bool {
        self.at_punct('.') && self.nth_punct(1, '.')
    }

    /// After `..`: does a high bound follow?
    fn range_hi_follows(&self, _allow_struct: bool) -> bool {
        match self.tok() {
            None => false,
            Some(t) if t.kind == TokKind::Punct => !matches!(
                t.text.chars().next().unwrap_or(' '),
                ';' | ',' | ')' | ']' | '}' | '{'
            ),
            Some(t) if t.kind == TokKind::Ident => {
                // `for x in 1.. if …`? No: `..` then a keyword that
                // cannot start an operand means no bound.
                !matches!(t.text.as_str(), "else" | "in" | "where")
            }
            Some(_) => true,
        }
    }

    fn parse_expr_inner(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        if self.at_range_op() {
            let inclusive = self.nth_punct(2, '=');
            self.bump();
            self.bump();
            if inclusive {
                self.bump();
            }
            let hi = if self.range_hi_follows(allow_struct) {
                Some(Box::new(self.parse_binary(1, allow_struct)))
            } else {
                None
            };
            return Expr {
                kind: ExprKind::Range {
                    lo: None,
                    hi,
                    inclusive,
                },
                line,
            };
        }
        let lhs = self.parse_binary(1, allow_struct);
        if let Some((op, n)) = self.peek_assign_op() {
            for _ in 0..n {
                self.bump();
            }
            let rhs = self.parse_expr(allow_struct);
            return Expr {
                kind: ExprKind::Assign {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            };
        }
        if self.at_range_op() {
            let inclusive = self.nth_punct(2, '=');
            self.bump();
            self.bump();
            if inclusive {
                self.bump();
            }
            let hi = if self.range_hi_follows(allow_struct) {
                Some(Box::new(self.parse_binary(1, allow_struct)))
            } else {
                None
            };
            return Expr {
                kind: ExprKind::Range {
                    lo: Some(Box::new(lhs)),
                    hi,
                    inclusive,
                },
                line,
            };
        }
        lhs
    }

    fn peek_assign_op(&self) -> Option<(String, usize)> {
        let t = self.tok()?;
        if t.kind != TokKind::Punct {
            return None;
        }
        let c = t.text.chars().next()?;
        match c {
            '=' if !self.nth_punct(1, '=') && !self.nth_punct(1, '>') => Some(("=".into(), 1)),
            '+' | '-' | '*' | '/' | '%' | '^' | '&' | '|' if self.nth_punct(1, '=') => {
                Some((format!("{c}="), 2))
            }
            '<' if self.nth_punct(1, '<') && self.nth_punct(2, '=') => Some(("<<=".into(), 3)),
            '>' if self.nth_punct(1, '>') && self.nth_punct(2, '=') => Some((">>=".into(), 3)),
            _ => None,
        }
    }

    /// Binary operator at the cursor: `(text, token_count, precedence)`.
    fn peek_binop(&self) -> Option<(&'static str, usize, u8)> {
        const OR: u8 = 1;
        const AND: u8 = 2;
        const CMP: u8 = 3;
        const BITOR: u8 = 4;
        const BITXOR: u8 = 5;
        const BITAND: u8 = 6;
        const SHIFT: u8 = 7;
        const ADD: u8 = 8;
        const MUL: u8 = 9;
        let t = self.tok()?;
        if t.kind != TokKind::Punct {
            return None;
        }
        let c = t.text.chars().next()?;
        match c {
            '|' => {
                if self.nth_punct(1, '|') {
                    Some(("||", 2, OR))
                } else if self.nth_punct(1, '=') {
                    None
                } else {
                    Some(("|", 1, BITOR))
                }
            }
            '&' => {
                if self.nth_punct(1, '&') {
                    Some(("&&", 2, AND))
                } else if self.nth_punct(1, '=') {
                    None
                } else {
                    Some(("&", 1, BITAND))
                }
            }
            '=' => {
                if self.nth_punct(1, '=') {
                    Some(("==", 2, CMP))
                } else {
                    None
                }
            }
            '!' => {
                if self.nth_punct(1, '=') {
                    Some(("!=", 2, CMP))
                } else {
                    None
                }
            }
            '<' => {
                if self.nth_punct(1, '=') {
                    Some(("<=", 2, CMP))
                } else if self.nth_punct(1, '<') {
                    if self.nth_punct(2, '=') {
                        None
                    } else {
                        Some(("<<", 2, SHIFT))
                    }
                } else {
                    Some(("<", 1, CMP))
                }
            }
            '>' => {
                if self.nth_punct(1, '=') {
                    Some((">=", 2, CMP))
                } else if self.nth_punct(1, '>') {
                    if self.nth_punct(2, '=') {
                        None
                    } else {
                        Some((">>", 2, SHIFT))
                    }
                } else {
                    Some((">", 1, CMP))
                }
            }
            '+' => {
                if self.nth_punct(1, '=') {
                    None
                } else {
                    Some(("+", 1, ADD))
                }
            }
            '-' => {
                if self.nth_punct(1, '=') || self.nth_punct(1, '>') {
                    None
                } else {
                    Some(("-", 1, ADD))
                }
            }
            '*' | '/' | '%' => {
                if self.nth_punct(1, '=') {
                    None
                } else {
                    match c {
                        '*' => Some(("*", 1, MUL)),
                        '/' => Some(("/", 1, MUL)),
                        _ => Some(("%", 1, MUL)),
                    }
                }
            }
            '^' => {
                if self.nth_punct(1, '=') {
                    None
                } else {
                    Some(("^", 1, BITXOR))
                }
            }
            _ => None,
        }
    }

    fn parse_binary(&mut self, min_prec: u8, allow_struct: bool) -> Expr {
        let mut lhs = self.parse_cast(allow_struct);
        loop {
            if self.out_of_fuel() {
                break;
            }
            let Some((op, n, prec)) = self.peek_binop() else {
                break;
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            for _ in 0..n {
                self.bump();
            }
            let rhs = self.parse_binary(prec + 1, allow_struct);
            lhs = Expr {
                kind: ExprKind::Binary {
                    op: op.to_string(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            };
        }
        lhs
    }

    fn parse_cast(&mut self, allow_struct: bool) -> Expr {
        let mut e = self.parse_unary(allow_struct);
        while self.at_ident("as") {
            let line = self.line();
            self.bump();
            let ty_text = self.parse_cast_type();
            e = Expr {
                kind: ExprKind::Cast {
                    expr: Box::new(e),
                    ty_text,
                },
                line,
            };
        }
        e
    }

    /// A type in cast position: `f64`, `*const T`, `usize`,
    /// `Vec<f32>`. `<` is only generics when the preceding segment
    /// starts uppercase, so `x as u64 < y` stays a comparison.
    fn parse_cast_type(&mut self) -> String {
        let start = self.pos;
        loop {
            if self.at_punct('&') || self.at_punct('*') {
                self.bump();
                self.eat_ident("const");
                self.eat_ident("mut");
                continue;
            }
            break;
        }
        // Function-pointer type: `fn(f32) -> f32`.
        if self.at_ident("fn") {
            self.bump();
            if self.at_punct('(') {
                self.group_interior();
            }
            if self.at_punct('-') && self.nth_punct(1, '>') {
                self.bump();
                self.bump();
                self.parse_cast_type();
            }
            return Self::render(&self.toks[start.min(self.pos)..self.pos]);
        }
        let mut last_upper = false;
        while let Some(t) = self.tok() {
            if t.kind != TokKind::Ident {
                break;
            }
            last_upper = t
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase());
            self.bump();
            if self.at_colons() && self.nth(2).is_some_and(|t| t.kind == TokKind::Ident) {
                self.bump();
                self.bump();
                continue;
            }
            break;
        }
        if last_upper && self.at_punct('<') {
            self.skip_angles();
        }
        Self::render(&self.toks[start.min(self.pos)..self.pos])
    }

    fn parse_unary(&mut self, allow_struct: bool) -> Expr {
        self.depth += 1;
        let e = if self.depth > MAX_DEPTH || self.out_of_fuel() {
            self.bail_opaque()
        } else {
            self.parse_unary_inner(allow_struct)
        };
        self.depth -= 1;
        e
    }

    fn parse_unary_inner(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        if self.at_punct('-') && !self.nth_punct(1, '>') {
            self.bump();
            return Expr {
                kind: ExprKind::Unary {
                    op: '-',
                    expr: Box::new(self.parse_unary(allow_struct)),
                },
                line,
            };
        }
        if self.at_punct('!') {
            self.bump();
            return Expr {
                kind: ExprKind::Unary {
                    op: '!',
                    expr: Box::new(self.parse_unary(allow_struct)),
                },
                line,
            };
        }
        if self.at_punct('*') {
            self.bump();
            return Expr {
                kind: ExprKind::Deref {
                    expr: Box::new(self.parse_unary(allow_struct)),
                },
                line,
            };
        }
        if self.at_punct('&') {
            self.bump();
            self.eat_ident("mut");
            return Expr {
                kind: ExprKind::Ref {
                    expr: Box::new(self.parse_unary(allow_struct)),
                },
                line,
            };
        }
        self.parse_postfix(allow_struct)
    }

    fn parse_postfix(&mut self, allow_struct: bool) -> Expr {
        let mut e = self.parse_primary(allow_struct);
        loop {
            if self.out_of_fuel() {
                break;
            }
            let line = self.line();
            if self.at_punct('?') {
                self.bump();
                e = Expr {
                    kind: ExprKind::Try(Box::new(e)),
                    line,
                };
                continue;
            }
            if self.at_punct('.') && !self.nth_punct(1, '.') {
                if self.nth(1).is_some_and(|t| t.kind == TokKind::Num) {
                    self.bump();
                    let text = self.tok().map(|t| t.text.clone()).unwrap_or_default();
                    self.bump();
                    for part in text.split('.').filter(|p| !p.is_empty()) {
                        e = Expr {
                            kind: ExprKind::Field {
                                recv: Box::new(e),
                                name: part.to_string(),
                            },
                            line,
                        };
                    }
                    continue;
                }
                if self.nth(1).is_some_and(|t| t.kind == TokKind::Ident) {
                    self.bump();
                    let name = self.tok().map(|t| t.text.clone()).unwrap_or_default();
                    self.bump();
                    if name == "await" {
                        continue;
                    }
                    if self.at_colons() && self.nth_punct(2, '<') {
                        self.bump();
                        self.bump();
                        self.skip_angles();
                    }
                    if self.at_punct('(') {
                        let args = self.parse_call_args();
                        e = Expr {
                            kind: ExprKind::MethodCall {
                                recv: Box::new(e),
                                method: name,
                                args,
                            },
                            line,
                        };
                    } else {
                        e = Expr {
                            kind: ExprKind::Field {
                                recv: Box::new(e),
                                name,
                            },
                            line,
                        };
                    }
                    continue;
                }
                break;
            }
            if self.at_punct('(') {
                let args = self.parse_call_args();
                e = Expr {
                    kind: ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                    line,
                };
                continue;
            }
            if self.at_punct('[') {
                self.bump();
                let idx = self.parse_expr(true);
                self.expect_punct(']', "to close index");
                e = Expr {
                    kind: ExprKind::Index {
                        recv: Box::new(e),
                        index: Box::new(idx),
                    },
                    line,
                };
                continue;
            }
            break;
        }
        e
    }

    /// Cursor at `(`: parses a comma-separated argument list.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        self.bump(); // (
        let mut args = Vec::new();
        while !self.eof() && !self.at_punct(')') {
            if self.out_of_fuel() {
                break;
            }
            let before = self.pos;
            args.push(self.parse_expr(true));
            self.eat_punct(',');
            if self.pos == before {
                self.bump();
            }
        }
        self.expect_punct(')', "to close call arguments");
        args
    }

    fn can_start_operand(&self) -> bool {
        match self.tok() {
            None => false,
            Some(t) if t.kind == TokKind::Punct => !matches!(
                t.text.chars().next().unwrap_or(' '),
                ';' | ',' | ')' | ']' | '}' | '='
            ),
            Some(t) if t.kind == TokKind::Ident => {
                !matches!(t.text.as_str(), "else" | "in" | "where")
            }
            Some(_) => true,
        }
    }

    fn parse_primary(&mut self, allow_struct: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.tok() else {
            self.err("unexpected end of input in expression".into());
            return Expr {
                kind: ExprKind::Opaque(String::new()),
                line,
            };
        };
        match t.kind {
            TokKind::Num => {
                let text = t.text.clone();
                self.bump();
                Expr {
                    kind: ExprKind::Num(text),
                    line,
                }
            }
            TokKind::Str => {
                let text = t.text.clone();
                self.bump();
                Expr {
                    kind: ExprKind::Str(text),
                    line,
                }
            }
            TokKind::CharLit => {
                self.bump();
                Expr {
                    kind: ExprKind::Char,
                    line,
                }
            }
            TokKind::Lifetime => {
                if self.nth_punct(1, ':') {
                    // Loop label: `'outer: loop { … }`.
                    self.bump();
                    self.bump();
                    return self.parse_primary(allow_struct);
                }
                self.err("lifetime in expression position".into());
                self.bump();
                Expr {
                    kind: ExprKind::Opaque(t.text.clone()),
                    line,
                }
            }
            TokKind::Ident => self.parse_ident_primary(allow_struct, line),
            TokKind::Punct => self.parse_punct_primary(allow_struct, line),
            TokKind::Comment => {
                // Comments are stripped before parsing; tolerate one
                // anyway for raw-token-stream (fuzz) input.
                self.bump();
                self.parse_primary(allow_struct)
            }
        }
    }

    fn parse_punct_primary(&mut self, allow_struct: bool, line: u32) -> Expr {
        if self.at_punct('(') {
            self.bump();
            if self.eat_punct(')') {
                return Expr {
                    kind: ExprKind::Tuple(Vec::new()),
                    line,
                };
            }
            let first = self.parse_expr(true);
            if self.at_punct(',') {
                let mut elems = vec![first];
                while self.eat_punct(',') {
                    if self.eof() || self.at_punct(')') || self.out_of_fuel() {
                        break;
                    }
                    let before = self.pos;
                    elems.push(self.parse_expr(true));
                    if self.pos == before {
                        self.bump();
                    }
                }
                self.expect_punct(')', "to close tuple");
                return Expr {
                    kind: ExprKind::Tuple(elems),
                    line,
                };
            }
            self.expect_punct(')', "to close parenthesized expression");
            return first;
        }
        if self.at_punct('[') {
            self.bump();
            if self.eat_punct(']') {
                return Expr {
                    kind: ExprKind::Array(Vec::new()),
                    line,
                };
            }
            let first = self.parse_expr(true);
            if self.eat_punct(';') {
                let len = self.parse_expr(true);
                self.expect_punct(']', "to close array repeat");
                return Expr {
                    kind: ExprKind::Repeat {
                        elem: Box::new(first),
                        len: Box::new(len),
                    },
                    line,
                };
            }
            let mut elems = vec![first];
            while self.eat_punct(',') {
                if self.eof() || self.at_punct(']') || self.out_of_fuel() {
                    break;
                }
                let before = self.pos;
                elems.push(self.parse_expr(true));
                if self.pos == before {
                    self.bump();
                }
            }
            self.expect_punct(']', "to close array");
            return Expr {
                kind: ExprKind::Array(elems),
                line,
            };
        }
        if self.at_punct('{') {
            let b = self.parse_block();
            return Expr {
                kind: ExprKind::Block(b),
                line,
            };
        }
        if self.at_punct('|') {
            return self.parse_closure(line);
        }
        if self.at_punct('<') {
            // Qualified path: `<T as Trait>::method(…)`.
            self.skip_angles();
            if self.at_colons() {
                self.bump();
                self.bump();
                if self.at_any_ident() {
                    return self.parse_ident_primary(allow_struct, line);
                }
            }
            self.err("unparsable qualified path".into());
            return Expr {
                kind: ExprKind::Opaque("<qualified>".into()),
                line,
            };
        }
        if self.at_punct('#') {
            // Expression attribute — drop it and keep parsing.
            self.parse_attrs();
            return self.parse_primary(allow_struct);
        }
        let raw = self.tok().map(|t| t.text.clone()).unwrap_or_default();
        self.err(format!("unexpected token `{raw}` in expression"));
        self.bump();
        Expr {
            kind: ExprKind::Opaque(raw),
            line,
        }
    }

    fn parse_ident_primary(&mut self, allow_struct: bool, line: u32) -> Expr {
        let word = self.tok().map(|t| t.text.clone()).unwrap_or_default();
        match word.as_str() {
            "true" | "false" => {
                self.bump();
                Expr {
                    kind: ExprKind::Bool(word == "true"),
                    line,
                }
            }
            "if" => self.parse_if(),
            "match" => self.parse_match(),
            "while" => self.parse_while(),
            "for" => self.parse_for(),
            "loop" => {
                self.bump();
                let body = self.parse_block();
                Expr {
                    kind: ExprKind::Loop { body },
                    line,
                }
            }
            "unsafe" if self.nth_punct(1, '{') => {
                self.bump();
                let b = self.parse_block();
                Expr {
                    kind: ExprKind::Unsafe(b),
                    line,
                }
            }
            "return" => {
                self.bump();
                let val = if self.can_start_operand() {
                    Some(Box::new(self.parse_expr(allow_struct)))
                } else {
                    None
                };
                Expr {
                    kind: ExprKind::Return(val),
                    line,
                }
            }
            "break" => {
                self.bump();
                if self.tok().is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.bump();
                }
                let val = if self.can_start_operand() {
                    Some(Box::new(self.parse_expr(allow_struct)))
                } else {
                    None
                };
                Expr {
                    kind: ExprKind::Break(val),
                    line,
                }
            }
            "continue" => {
                self.bump();
                if self.tok().is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.bump();
                }
                Expr {
                    kind: ExprKind::Continue,
                    line,
                }
            }
            "move" if self.nth_punct(1, '|') => {
                self.bump();
                self.parse_closure(line)
            }
            _ => self.parse_path_expr(allow_struct, line),
        }
    }

    fn parse_closure(&mut self, line: u32) -> Expr {
        let mut params = Vec::new();
        self.bump(); // first |
        if !self.eat_punct('|') {
            while !self.eof() && !self.at_punct('|') {
                if self.out_of_fuel() {
                    break;
                }
                let before = self.pos;
                let pat = self.scan_pattern(PatStop::ClosureParam);
                params.extend(pat_names(pat));
                if self.eat_punct(':') {
                    self.collect_type(&[',', '|'], &[]);
                }
                self.eat_punct(',');
                if self.pos == before {
                    self.bump();
                }
            }
            self.expect_punct('|', "to close closure parameters");
        }
        if self.at_punct('-') && self.nth_punct(1, '>') {
            self.bump();
            self.bump();
            self.collect_type(&['{'], &[]);
        }
        let body = self.parse_expr(true);
        Expr {
            kind: ExprKind::Closure {
                params,
                body: Box::new(body),
            },
            line,
        }
    }

    fn parse_if(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // if
        if self.eat_ident("let") {
            let pat = self.scan_pattern(PatStop::LetEq);
            let pat_names_v = pat_names(pat);
            let pat_text = Self::render(pat);
            self.eat_punct('=');
            let scrutinee = self.parse_expr(false);
            let then = self.parse_block();
            let else_ = self.parse_else();
            return Expr {
                kind: ExprKind::IfLet {
                    pat_names: pat_names_v,
                    pat_text,
                    scrutinee: Box::new(scrutinee),
                    then,
                    else_,
                },
                line,
            };
        }
        let cond = self.parse_expr(false);
        let then = self.parse_block();
        let else_ = self.parse_else();
        Expr {
            kind: ExprKind::If {
                cond: Box::new(cond),
                then,
                else_,
            },
            line,
        }
    }

    fn parse_else(&mut self) -> Option<Box<Expr>> {
        if !self.eat_ident("else") {
            return None;
        }
        if self.at_ident("if") {
            return Some(Box::new(self.parse_if()));
        }
        if self.at_punct('{') {
            let line = self.line();
            let b = self.parse_block();
            return Some(Box::new(Expr {
                kind: ExprKind::Block(b),
                line,
            }));
        }
        self.err("expected `if` or block after `else`".into());
        None
    }

    fn parse_while(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // while
        if self.eat_ident("let") {
            let pat = self.scan_pattern(PatStop::LetEq);
            let names = pat_names(pat);
            let pat_text = Self::render(pat);
            self.eat_punct('=');
            let scrutinee = self.parse_expr(false);
            let body = self.parse_block();
            return Expr {
                kind: ExprKind::WhileLet {
                    pat_names: names,
                    pat_text,
                    scrutinee: Box::new(scrutinee),
                    body,
                },
                line,
            };
        }
        let cond = self.parse_expr(false);
        let body = self.parse_block();
        Expr {
            kind: ExprKind::While {
                cond: Box::new(cond),
                body,
            },
            line,
        }
    }

    fn parse_for(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // for
        let pat = self.scan_pattern(PatStop::In);
        let names = pat_names(pat);
        let pat_text = Self::render(pat);
        if !self.eat_ident("in") {
            self.err("expected `in` in for loop".into());
        }
        let iter = self.parse_expr(false);
        let body = self.parse_block();
        Expr {
            kind: ExprKind::ForLoop {
                pat_names: names,
                pat_text,
                iter: Box::new(iter),
                body,
            },
            line,
        }
    }

    fn parse_match(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // match
        let scrutinee = self.parse_expr(false);
        self.expect_punct('{', "to open match body");
        let mut arms = Vec::new();
        while !self.eof() && !self.at_punct('}') {
            if self.out_of_fuel() {
                break;
            }
            let before = self.pos;
            let pat = self.scan_pattern(PatStop::Arrow);
            let guard = if self.eat_ident("if") {
                Some(self.parse_expr(false))
            } else {
                None
            };
            if self.at_punct('=') && self.nth_punct(1, '>') {
                self.bump();
                self.bump();
            } else {
                self.err("expected `=>` in match arm".into());
            }
            let body = self.parse_expr(true);
            self.eat_punct(',');
            arms.push(Arm {
                pat_names: pat_names(pat),
                pat_text: Self::render(pat),
                guard,
                body,
            });
            if self.pos == before {
                self.bump();
            }
        }
        self.expect_punct('}', "to close match body");
        Expr {
            kind: ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
            line,
        }
    }

    /// Path expression: segments, optional turbofish, then macro call
    /// or struct literal.
    fn parse_path_expr(&mut self, allow_struct: bool, line: u32) -> Expr {
        let mut segs = Vec::new();
        segs.push(self.tok().map(|t| t.text.clone()).unwrap_or_default());
        self.bump();
        loop {
            if !self.at_colons() {
                break;
            }
            if self.nth_punct(2, '<') {
                self.bump();
                self.bump();
                self.skip_angles();
                continue;
            }
            if self.nth(2).is_some_and(|t| t.kind == TokKind::Ident) {
                self.bump();
                self.bump();
                segs.push(self.tok().map(|t| t.text.clone()).unwrap_or_default());
                self.bump();
                continue;
            }
            break;
        }
        // Macro invocation: `path!(…)` / `path![…]` / `path!{…}`.
        if self.at_punct('!')
            && (self.nth_punct(1, '(') || self.nth_punct(1, '[') || self.nth_punct(1, '{'))
        {
            self.bump(); // !
            let interior = self.group_interior();
            let raw = Self::render(interior);
            let args = self.parse_macro_args(interior);
            return Expr {
                kind: ExprKind::MacroCall {
                    path: segs,
                    args,
                    raw,
                },
                line,
            };
        }
        if allow_struct && self.at_punct('{') {
            return self.parse_struct_lit(segs, line);
        }
        Expr {
            kind: ExprKind::Path(segs),
            line,
        }
    }

    fn parse_struct_lit(&mut self, path: Vec<String>, line: u32) -> Expr {
        self.bump(); // {
        let mut fields = Vec::new();
        let mut rest = None;
        while !self.eof() && !self.at_punct('}') {
            if self.out_of_fuel() {
                break;
            }
            let before = self.pos;
            if self.at_punct('#') {
                // `#[cfg(…)]` on a struct-literal field.
                self.parse_attrs();
                continue;
            }
            if self.at_range_op() {
                self.bump();
                self.bump();
                if !self.at_punct('}') {
                    rest = Some(Box::new(self.parse_expr(true)));
                }
            } else if self.at_any_ident() && self.nth_punct(1, ':') && !self.nth_punct(2, ':') {
                let name = self.tok().map(|t| t.text.clone()).unwrap_or_default();
                self.bump();
                self.bump();
                let value = self.parse_expr(true);
                fields.push((name, value));
            } else if self.at_any_ident() {
                let name = self.tok().map(|t| t.text.clone()).unwrap_or_default();
                let fline = self.line();
                self.bump();
                let value = Expr {
                    kind: ExprKind::Path(vec![name.clone()]),
                    line: fline,
                };
                fields.push((name, value));
            } else {
                self.err("unexpected token in struct literal".into());
                self.bump();
            }
            self.eat_punct(',');
            if self.pos == before {
                self.bump();
            }
        }
        self.expect_punct('}', "to close struct literal");
        Expr {
            kind: ExprKind::StructLit { path, fields, rest },
            line,
        }
    }

    /// Best-effort sub-parse of macro arguments: the interior is split
    /// at top-level `,` / `;` and each chunk parsed as an expression;
    /// chunks that are not expressions (patterns, format specs with
    /// trailing garbage) become `Opaque` and never produce errors.
    fn parse_macro_args(&self, interior: &'a [Tok]) -> Vec<Expr> {
        let mut chunks: Vec<&[Tok]> = Vec::new();
        let mut depth = 0i32;
        let mut start = 0usize;
        for (i, t) in interior.iter().enumerate() {
            if t.kind == TokKind::Punct {
                match t.text.chars().next().unwrap_or(' ') {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth = (depth - 1).max(0),
                    ',' | ';' if depth == 0 => {
                        chunks.push(&interior[start..i]);
                        start = i + 1;
                    }
                    _ => {}
                }
            }
        }
        chunks.push(&interior[start..]);
        let mut args = Vec::new();
        for chunk in chunks {
            if chunk.is_empty() {
                continue;
            }
            let mut sub = Parser {
                toks: chunk,
                pos: 0,
                errors: Vec::new(),
                depth: self.depth,
                fuel: 20 * chunk.len() as u64 + 256,
            };
            let e = sub.parse_expr(true);
            if sub.errors.is_empty() && sub.eof() {
                args.push(e);
            } else {
                args.push(Expr {
                    kind: ExprKind::Opaque(Self::render(chunk)),
                    line: chunk.first().map_or(1, |t| t.line),
                });
            }
        }
        args
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_clean(src: &str) -> File {
        let f = parse(src);
        assert!(f.errors.is_empty(), "parse errors: {:#?}", f.errors);
        f
    }

    fn only_fn_body(src: &str) -> Block {
        let f = parse_clean(src);
        for item in &f.items {
            if let ItemKind::Fn(def) = &item.kind {
                return def.body.clone().expect("fn body");
            }
        }
        panic!("no fn in {src}");
    }

    #[test]
    fn parses_items_and_fn_signatures() {
        let f = parse_clean(
            "pub struct Matrix { rows: usize }\n\
             impl Matrix {\n\
                 pub fn get(&self, i: usize) -> f64 { self.data[i] }\n\
             }\n\
             pub fn free(x: u32, (a, b): (u8, u8)) -> u32 { x + a as u32 }\n",
        );
        assert_eq!(f.items.len(), 3);
        let ItemKind::Impl { self_ty, items, .. } = &f.items[1].kind else {
            panic!("expected impl");
        };
        assert_eq!(self_ty, "Matrix");
        let ItemKind::Fn(def) = &items[0].kind else {
            panic!("expected fn");
        };
        assert!(def.has_self);
        assert_eq!(def.params.len(), 1);
        assert_eq!(def.params[0].name.as_deref(), Some("i"));
        assert_eq!(def.ret_text, "f64");
    }

    #[test]
    fn statement_position_blocks_terminate() {
        // `if … { } *p = 1;` must be two statements, not `{} * p`.
        let b = only_fn_body(
            "fn f(c: bool, p: &mut f64) {\n\
                 if c { }\n\
                 *p = 1.0;\n\
             }\n",
        );
        assert_eq!(b.stmts.len(), 2);
    }

    #[test]
    fn precedence_and_ranges() {
        let b = only_fn_body("fn f() { let x = 1 + 2 * 3; for i in 0..n { } }");
        let Stmt::Let { init: Some(e), .. } = &b.stmts[0] else {
            panic!("let");
        };
        let ExprKind::Binary { op, rhs, .. } = &e.kind else {
            panic!("binary");
        };
        assert_eq!(op, "+");
        assert!(matches!(rhs.kind, ExprKind::Binary { .. }));
        let Stmt::Expr { expr, .. } = &b.stmts[1] else {
            panic!("for");
        };
        let ExprKind::ForLoop { iter, .. } = &expr.kind else {
            panic!("for loop");
        };
        assert!(matches!(iter.kind, ExprKind::Range { .. }));
    }

    #[test]
    fn method_chains_turbofish_and_macros() {
        let b = only_fn_body(
            "fn f(xs: &[f64]) {\n\
                 let v: Vec<f64> = xs.iter().map(|x| x * 2.0).collect::<Vec<_>>();\n\
                 assert_eq!(v.len(), xs.len());\n\
                 let w = vec![0.0f64; xs.len()];\n\
             }\n",
        );
        assert_eq!(b.stmts.len(), 3);
        let Stmt::Expr { expr, .. } = &b.stmts[1] else {
            panic!("macro stmt");
        };
        let ExprKind::MacroCall { path, args, .. } = &expr.kind else {
            panic!("macro");
        };
        assert_eq!(path[0], "assert_eq");
        assert_eq!(args.len(), 2);
        let Stmt::Let { init: Some(e), .. } = &b.stmts[2] else {
            panic!("vec let");
        };
        let ExprKind::MacroCall { args, .. } = &e.kind else {
            panic!("vec macro");
        };
        assert_eq!(args.len(), 2, "vec![elem; len] splits into two args");
    }

    #[test]
    fn struct_literals_and_no_struct_positions() {
        let b = only_fn_body(
            "fn f(o: Option<u32>) {\n\
                 if let Some(x) = o { }\n\
                 let p = Point { x: 1, y: 2 };\n\
                 match o { Some(v) if v > 0 => v, _ => 0 };\n\
             }\n",
        );
        assert_eq!(b.stmts.len(), 3);
        let Stmt::Let { init: Some(e), .. } = &b.stmts[1] else {
            panic!("let");
        };
        assert!(matches!(e.kind, ExprKind::StructLit { .. }));
        let Stmt::Expr { expr, .. } = &b.stmts[2] else {
            panic!("match");
        };
        let ExprKind::Match { arms, .. } = &expr.kind else {
            panic!("match");
        };
        assert_eq!(arms.len(), 2);
        assert!(arms[0].guard.is_some());
        assert_eq!(arms[0].pat_names, vec!["v"]);
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "fn f( { ) }",
            "let",
            "}}}}",
            "fn",
            "impl for {",
            "fn f() { 1 + }",
            "fn f() { x[ }",
            "match {",
            "fn f() { a.b.c(((((((((( }",
        ] {
            let _ = parse(src);
        }
    }
}
