//! Lowering the AST to a basic-block control flow graph.
//!
//! Each function becomes a [`pst_cfg::Cfg`] whose nodes carry
//! [`BlockInfo`] side data: the straight-line statements of the block with
//! their definitions and uses, plus the variables read by the block's
//! terminating branch. This plays the role of the paper's block-level CFG
//! front-end (they used Dennis Gannon's Sigma FORTRAN front-end); SSA
//! construction and data-flow analysis consume the def/use information.
//!
//! Unreachable code (after `return`/`goto`/`break`) and code that cannot
//! reach the exit (e.g. a `goto` spin loop on a conditional path) is pruned
//! so the result always satisfies the CFG validity invariants — the paper's
//! Definition 1 assumes every node lies on an entry→exit path.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use pst_cfg::{Cfg, CfgBuilder, NodeId, ValidateCfgError};

use crate::ast::{Block, Expr, Function, Program, SrcPos, Stmt};
use crate::pretty::{pretty_expr, stmt_head};

/// Interned variable identifier, dense per function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(u32);

impl VarId {
    /// Creates a variable id from a dense index.
    pub fn from_index(index: usize) -> Self {
        VarId(u32::try_from(index).expect("variable index overflows u32"))
    }

    /// Dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One straight-line statement inside a basic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StmtInfo {
    /// Variable defined (written), if any.
    pub def: Option<VarId>,
    /// Variables used (read), in occurrence order.
    pub uses: Vec<VarId>,
    /// Source rendering, for dumps and examples.
    pub text: String,
    /// Source position of the statement's first token, when the AST came
    /// from the parser (`None` for synthetic statements such as the
    /// implicit `param` definitions or generator output).
    pub pos: Option<SrcPos>,
}

/// Per-basic-block side information.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockInfo {
    /// The block's statements in execution order.
    pub stmts: Vec<StmtInfo>,
    /// Variables read by the branch condition that terminates the block
    /// (empty for unconditional blocks).
    pub branch_uses: Vec<VarId>,
    /// Source position of the branching statement (`if`/`while`/…) whose
    /// condition terminates this block, when known.
    pub branch_pos: Option<SrcPos>,
}

/// A function lowered to a CFG with def/use side tables.
#[derive(Clone, Debug)]
pub struct LoweredFunction {
    /// Function name.
    pub name: String,
    /// The control flow graph.
    pub cfg: Cfg,
    /// Side data per CFG node (indexed by `NodeId::index`).
    pub blocks: Vec<BlockInfo>,
    /// Variable names (indexed by `VarId::index`).
    pub vars: Vec<String>,
}

impl LoweredFunction {
    /// Number of variables in the function.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()]
    }

    /// Looks a variable up by name.
    pub fn var_id(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|n| n == name)
            .map(VarId::from_index)
    }

    /// Nodes containing at least one definition of `v`, sorted.
    pub fn definition_sites(&self, v: VarId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.stmts.iter().any(|s| s.def == Some(v)))
            .map(|(i, _)| NodeId::from_index(i))
            .collect();
        out.sort_unstable();
        out
    }

    /// Whether block `node` writes `v`.
    pub fn block_defines(&self, node: NodeId, v: VarId) -> bool {
        self.blocks[node.index()]
            .stmts
            .iter()
            .any(|s| s.def == Some(v))
    }

    /// Total number of statements across all blocks (the paper's
    /// statement-level size measure for QPGs).
    pub fn statement_count(&self) -> usize {
        self.blocks.iter().map(|b| b.stmts.len()).sum()
    }
}

/// Why lowering failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// `goto` to a label that is never declared.
    UndefinedLabel(String),
    /// The same label declared twice.
    DuplicateLabel(String),
    /// `break` outside any loop or switch.
    BreakOutsideLoop,
    /// `continue` outside any loop.
    ContinueOutsideLoop,
    /// After pruning, the entry cannot reach the exit (e.g. the body is an
    /// unconditional infinite `goto` cycle).
    NoPathToExit,
    /// The produced graph failed CFG validation (internal error).
    Validate(ValidateCfgError),
    /// Lowering bookkeeping broke an internal invariant (a bug in the
    /// lowerer, not in the input) — reported instead of panicking so a
    /// front-end driver can contain it per function.
    Internal(&'static str),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UndefinedLabel(l) => write!(f, "goto to undefined label `{l}`"),
            LowerError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            LowerError::BreakOutsideLoop => write!(f, "break outside loop or switch"),
            LowerError::ContinueOutsideLoop => write!(f, "continue outside loop"),
            LowerError::NoPathToExit => write!(f, "function body cannot reach the exit"),
            LowerError::Validate(e) => write!(f, "invalid control flow graph: {e}"),
            LowerError::Internal(what) => write!(f, "internal lowering invariant broken: {what}"),
        }
    }
}

impl Error for LowerError {}

/// Lowers every function of a program.
///
/// # Errors
///
/// Returns the first [`LowerError`] encountered.
pub fn lower_program(p: &Program) -> Result<Vec<LoweredFunction>, LowerError> {
    p.functions.iter().map(lower_function).collect()
}

/// Lowers one function to a CFG.
///
/// # Errors
///
/// See [`LowerError`].
///
/// # Examples
///
/// ```
/// let f = pst_lang::parse_program("fn f(n) { while (n > 0) { n = n - 1; } return n; }")
///     .unwrap();
/// let lowered = pst_lang::lower_function(&f.functions[0]).unwrap();
/// // entry block, loop header, body, return block, exit
/// assert!(lowered.cfg.node_count() >= 5);
/// assert_eq!(lowered.var_name(lowered.var_id("n").unwrap()), "n");
/// ```
pub fn lower_function(f: &Function) -> Result<LoweredFunction, LowerError> {
    let _span = pst_obs::Span::enter("lower");
    pst_obs::counter!("functions_lowered");
    let mut lo = Lowerer::new();
    // Parameters are definitions at the entry block.
    for p in &f.params {
        let v = lo.var(p);
        let cur = lo.current;
        lo.staging[cur].info.stmts.push(StmtInfo {
            def: Some(v),
            uses: Vec::new(),
            text: format!("param {p}"),
            pos: None,
        });
    }
    lo.lower_block(&f.body)?;
    // Implicit return at the end of the body.
    let cur = lo.current;
    lo.edge(cur, EXIT);
    lo.finish(f.name.clone())
}

/// Staging-block index of the synthetic exit.
const EXIT: usize = 1;

#[derive(Default)]
struct StagingBlock {
    info: BlockInfo,
    succs: Vec<usize>,
}

struct Lowerer {
    staging: Vec<StagingBlock>,
    current: usize,
    vars: Vec<String>,
    var_index: HashMap<String, VarId>,
    labels: HashMap<String, usize>,
    defined_labels: HashMap<String, bool>,
    break_stack: Vec<usize>,
    continue_stack: Vec<usize>,
}

impl Lowerer {
    fn new() -> Self {
        let mut lo = Lowerer {
            staging: Vec::new(),
            current: 0,
            vars: Vec::new(),
            var_index: HashMap::new(),
            labels: HashMap::new(),
            defined_labels: HashMap::new(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
        };
        lo.new_block(); // 0 = entry
        lo.new_block(); // 1 = exit
        lo.current = 0;
        lo
    }

    fn new_block(&mut self) -> usize {
        self.staging.push(StagingBlock::default());
        self.staging.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.staging[from].succs.push(to);
    }

    fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.var_index.get(name) {
            return v;
        }
        let v = VarId::from_index(self.vars.len());
        self.vars.push(name.to_string());
        self.var_index.insert(name.to_string(), v);
        v
    }

    fn uses_of(&mut self, e: &Expr) -> Vec<VarId> {
        let mut names = Vec::new();
        e.variables(&mut names);
        let mut out = Vec::new();
        for n in names {
            let v = self.var(&n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    fn label_block(&mut self, name: &str) -> usize {
        if let Some(&b) = self.labels.get(name) {
            return b;
        }
        let b = self.new_block();
        self.labels.insert(name.to_string(), b);
        b
    }

    fn lower_block(&mut self, b: &Block) -> Result<(), LowerError> {
        for (i, s) in b.stmts.iter().enumerate() {
            self.lower_stmt(s, b.span(i))?;
        }
        Ok(())
    }

    /// After an unconditional jump, subsequent statements fall into a fresh
    /// (so far unreachable) block; it gets pruned unless a label resurrects
    /// the flow.
    fn orphan(&mut self) {
        self.current = self.new_block();
    }

    fn lower_stmt(&mut self, s: &Stmt, pos: Option<SrcPos>) -> Result<(), LowerError> {
        match s {
            Stmt::Assign { target, value } => {
                let uses = self.uses_of(value);
                let def = self.var(target);
                let cur = self.current;
                self.staging[cur].info.stmts.push(StmtInfo {
                    def: Some(def),
                    uses,
                    text: stmt_head(s),
                    pos,
                });
                Ok(())
            }
            Stmt::Expr(e) => {
                let uses = self.uses_of(e);
                let cur = self.current;
                self.staging[cur].info.stmts.push(StmtInfo {
                    def: None,
                    uses,
                    text: pretty_expr(e),
                    pos,
                });
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                // The condition gets its own block: the paper's block-level
                // CFG keeps switch operators separate from merge operators,
                // which is what gives sequential conditionals their SESE
                // boundary edges.
                let uses = self.uses_of(cond);
                let prev = self.current;
                let cur = self.new_block();
                self.edge(prev, cur);
                self.staging[cur].info.branch_uses = uses;
                self.staging[cur].info.branch_pos = pos;
                let then_b = self.new_block();
                let join = self.new_block();
                self.edge(cur, then_b);
                self.current = then_b;
                self.lower_block(then_branch)?;
                let end_then = self.current;
                self.edge(end_then, join);
                match else_branch {
                    Some(eb) => {
                        let else_b = self.new_block();
                        self.edge(cur, else_b);
                        self.current = else_b;
                        self.lower_block(eb)?;
                        let end_else = self.current;
                        self.edge(end_else, join);
                    }
                    None => self.edge(cur, join),
                }
                self.current = join;
                Ok(())
            }
            Stmt::While { cond, body } => {
                let header = self.new_block();
                let body_b = self.new_block();
                let after = self.new_block();
                let cur = self.current;
                self.edge(cur, header);
                let uses = self.uses_of(cond);
                self.staging[header].info.branch_uses = uses;
                self.staging[header].info.branch_pos = pos;
                self.edge(header, body_b);
                self.edge(header, after);
                self.break_stack.push(after);
                self.continue_stack.push(header);
                self.current = body_b;
                self.lower_block(body)?;
                let end = self.current;
                self.edge(end, header);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.current = after;
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let body_b = self.new_block();
                let latch = self.new_block();
                let after = self.new_block();
                let cur = self.current;
                self.edge(cur, body_b);
                self.break_stack.push(after);
                self.continue_stack.push(latch);
                self.current = body_b;
                self.lower_block(body)?;
                let end = self.current;
                self.edge(end, latch);
                let uses = self.uses_of(cond);
                self.staging[latch].info.branch_uses = uses;
                self.staging[latch].info.branch_pos = pos;
                self.edge(latch, body_b);
                self.edge(latch, after);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.current = after;
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.lower_stmt(init, pos)?;
                let header = self.new_block();
                let body_b = self.new_block();
                let step_b = self.new_block();
                let after = self.new_block();
                let cur = self.current;
                self.edge(cur, header);
                let uses = self.uses_of(cond);
                self.staging[header].info.branch_uses = uses;
                self.staging[header].info.branch_pos = pos;
                self.edge(header, body_b);
                self.edge(header, after);
                self.break_stack.push(after);
                self.continue_stack.push(step_b);
                self.current = body_b;
                self.lower_block(body)?;
                let end = self.current;
                self.edge(end, step_b);
                self.current = step_b;
                self.lower_stmt(step, pos)?;
                let end_step = self.current;
                self.edge(end_step, header);
                self.break_stack.pop();
                self.continue_stack.pop();
                self.current = after;
                Ok(())
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
            } => {
                // Fresh block for the switch operator (see `Stmt::If`).
                let uses = self.uses_of(scrutinee);
                let prev = self.current;
                let cur = self.new_block();
                self.edge(prev, cur);
                self.staging[cur].info.branch_uses = uses;
                self.staging[cur].info.branch_pos = pos;
                let join = self.new_block();
                self.break_stack.push(join);
                for (_, arm) in cases {
                    let arm_b = self.new_block();
                    self.edge(cur, arm_b);
                    self.current = arm_b;
                    self.lower_block(arm)?;
                    let end = self.current;
                    self.edge(end, join);
                }
                match default {
                    Some(arm) => {
                        let arm_b = self.new_block();
                        self.edge(cur, arm_b);
                        self.current = arm_b;
                        self.lower_block(arm)?;
                        let end = self.current;
                        self.edge(end, join);
                    }
                    None => self.edge(cur, join),
                }
                self.break_stack.pop();
                self.current = join;
                Ok(())
            }
            Stmt::Break => {
                let target = *self
                    .break_stack
                    .last()
                    .ok_or(LowerError::BreakOutsideLoop)?;
                let cur = self.current;
                self.edge(cur, target);
                self.orphan();
                Ok(())
            }
            Stmt::Continue => {
                let target = *self
                    .continue_stack
                    .last()
                    .ok_or(LowerError::ContinueOutsideLoop)?;
                let cur = self.current;
                self.edge(cur, target);
                self.orphan();
                Ok(())
            }
            Stmt::Return(e) => {
                let (uses, text) = match e {
                    Some(e) => (self.uses_of(e), format!("return {}", pretty_expr(e))),
                    None => (Vec::new(), "return".to_string()),
                };
                let cur = self.current;
                self.staging[cur].info.stmts.push(StmtInfo {
                    def: None,
                    uses,
                    text,
                    pos,
                });
                self.edge(cur, EXIT);
                self.orphan();
                Ok(())
            }
            Stmt::Goto(l) => {
                let target = self.label_block(l);
                let cur = self.current;
                self.edge(cur, target);
                self.orphan();
                Ok(())
            }
            Stmt::Label(l) => {
                if self.defined_labels.insert(l.clone(), true).is_some() {
                    return Err(LowerError::DuplicateLabel(l.clone()));
                }
                let b = self.label_block(l);
                let cur = self.current;
                self.edge(cur, b);
                self.current = b;
                Ok(())
            }
        }
    }

    fn finish(self, name: String) -> Result<LoweredFunction, LowerError> {
        // Any referenced-but-never-defined label is an error.
        for l in self.labels.keys() {
            if !self.defined_labels.contains_key(l) {
                return Err(LowerError::UndefinedLabel(l.clone()));
            }
        }
        let n = self.staging.len();
        // Reachability from the entry.
        let mut fwd = vec![false; n];
        let mut stack = vec![0usize];
        fwd[0] = true;
        while let Some(v) = stack.pop() {
            for &s in &self.staging[v].succs {
                if !fwd[s] {
                    fwd[s] = true;
                    stack.push(s);
                }
            }
        }
        // Reverse reachability to the exit.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (v, b) in self.staging.iter().enumerate() {
            for &s in &b.succs {
                preds[s].push(v);
            }
        }
        let mut bwd = vec![false; n];
        let mut stack = vec![EXIT];
        bwd[EXIT] = true;
        while let Some(v) = stack.pop() {
            for &p in &preds[v] {
                if !bwd[p] {
                    bwd[p] = true;
                    stack.push(p);
                }
            }
        }
        let keep: Vec<bool> = (0..n).map(|i| fwd[i] && bwd[i]).collect();
        if !keep[0] {
            return Err(LowerError::NoPathToExit);
        }

        // Emit the pruned CFG.
        let mut builder = CfgBuilder::new();
        let mut remap: Vec<Option<NodeId>> = vec![None; n];
        let mut blocks = Vec::new();
        for i in 0..n {
            if keep[i] {
                remap[i] = Some(builder.add_node());
                blocks.push(self.staging[i].info.clone());
            }
        }
        for i in 0..n {
            let Some(from) = remap[i] else { continue };
            for &s in &self.staging[i].succs {
                if let Some(to) = remap[s] {
                    builder.add_edge(from, to);
                }
            }
        }
        // `keep[0]` was tested above and EXIT seeds the backward sweep, so
        // these lookups cannot fail unless the pruning bookkeeping is buggy
        // — surface that as an error, not a panic.
        let entry = remap[0].ok_or(LowerError::Internal("entry pruned from its own CFG"))?;
        let exit = remap[EXIT].ok_or(LowerError::Internal("exit pruned from its own CFG"))?;
        let cfg = builder.finish(entry, exit).map_err(LowerError::Validate)?;
        Ok(LoweredFunction {
            name,
            cfg,
            blocks,
            vars: self.vars,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function_body;

    fn lower(src: &str) -> LoweredFunction {
        let f = parse_function_body(src).unwrap();
        lower_function(&f).unwrap()
    }

    #[test]
    fn straight_line_two_blocks() {
        let l = lower("x = 1; y = x + 2; return y;");
        // entry block with all three statements + exit
        assert_eq!(l.cfg.node_count(), 2);
        assert_eq!(l.blocks[l.cfg.entry().index()].stmts.len(), 3);
        assert_eq!(l.statement_count(), 3);
    }

    #[test]
    fn if_else_diamond() {
        let l = lower("if (c) { x = 1; } else { x = 2; } return x;");
        // entry, cond, then, else, join, exit
        assert_eq!(l.cfg.node_count(), 6);
        let cond = l.cfg.graph().successors(l.cfg.entry()).next().unwrap();
        assert_eq!(l.cfg.graph().out_degree(cond), 2);
        let c = l.var_id("c").unwrap();
        assert!(l.blocks[cond.index()].branch_uses.contains(&c));
    }

    #[test]
    fn while_loop_shape() {
        let l = lower("while (n > 0) { n = n - 1; } return n;");
        // entry, header, body, after, exit
        assert_eq!(l.cfg.node_count(), 5);
        let n = l.var_id("n").unwrap();
        assert_eq!(l.definition_sites(n).len(), 1);
        // Loop creates a cycle.
        assert!(
            !pst_cfg::is_reducible(l.cfg.graph(), l.cfg.entry()) || {
                // reducible is fine; just confirm a backedge exists
                true
            }
        );
        let dfs = pst_cfg::Dfs::new(l.cfg.graph(), l.cfg.entry());
        assert!(l
            .cfg
            .graph()
            .edges()
            .any(|e| dfs.edge_kind(e) == Some(pst_cfg::DirectedEdgeKind::Back)));
    }

    #[test]
    fn do_while_executes_body_first() {
        let l = lower("do { n = n - 1; } while (n > 0); return n;");
        // entry -> body unconditionally.
        assert_eq!(l.cfg.graph().out_degree(l.cfg.entry()), 1);
    }

    #[test]
    fn for_loop_has_step_block() {
        let l = lower("for (i = 0; i < 9; i = i + 1) { s = s + i; } return s;");
        let i = l.var_id("i").unwrap();
        // i defined in init (entry block) and in the step block.
        assert_eq!(l.definition_sites(i).len(), 2);
    }

    #[test]
    fn switch_fanout() {
        let l = lower(
            "switch (x) { case 0: { y = 1; } case 1: { y = 2; } default: { y = 3; } } return y;",
        );
        let sw = l.cfg.graph().successors(l.cfg.entry()).next().unwrap();
        assert_eq!(l.cfg.graph().out_degree(sw), 3);
    }

    #[test]
    fn switch_without_default_edges_to_join() {
        let l = lower("switch (x) { case 0: { y = 1; } } return y;");
        let sw = l.cfg.graph().successors(l.cfg.entry()).next().unwrap();
        assert_eq!(l.cfg.graph().out_degree(sw), 2);
    }

    #[test]
    fn break_and_continue_edges() {
        let l = lower("while (a) { if (b) { break; } if (c) { continue; } x = 1; } return x;");
        // Valid CFG already implies the edges landed somewhere sensible.
        assert!(l.cfg.node_count() >= 7);
    }

    #[test]
    fn unreachable_code_is_pruned() {
        let l = lower("return 1; x = 2;");
        // the `x = 2` block disappears
        assert_eq!(l.cfg.node_count(), 2);
        assert!(l.var_id("x").is_some()); // the variable was interned though
    }

    #[test]
    fn goto_backward_makes_loop() {
        let l = lower("top: x = x + 1; if (x < 10) { goto top; } return x;");
        let dfs = pst_cfg::Dfs::new(l.cfg.graph(), l.cfg.entry());
        assert!(l
            .cfg
            .graph()
            .edges()
            .any(|e| dfs.edge_kind(e) == Some(pst_cfg::DirectedEdgeKind::Back)));
    }

    #[test]
    fn goto_can_create_irreducible_cfg() {
        let l = lower(
            "if (c) { goto b; }
             a: x = x + 1; goto c;
             b: x = x - 1;
             c: if (x > 0) { goto a; }
             return x;",
        );
        assert!(!pst_cfg::is_reducible(l.cfg.graph(), l.cfg.entry()));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let f = parse_function_body("goto nowhere; return 1;").unwrap();
        assert_eq!(
            lower_function(&f).unwrap_err(),
            LowerError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let f = parse_function_body("l: x = 1; l: x = 2; return x;").unwrap();
        assert_eq!(
            lower_function(&f).unwrap_err(),
            LowerError::DuplicateLabel("l".into())
        );
    }

    #[test]
    fn break_outside_loop_is_an_error() {
        let f = parse_function_body("break;").unwrap();
        assert_eq!(
            lower_function(&f).unwrap_err(),
            LowerError::BreakOutsideLoop
        );
    }

    #[test]
    fn infinite_goto_cycle_is_an_error() {
        let f = parse_function_body("l: goto l;").unwrap();
        assert_eq!(lower_function(&f).unwrap_err(), LowerError::NoPathToExit);
    }

    #[test]
    fn conditional_spin_loop_is_pruned() {
        let l = lower("if (c) { l: goto l; } x = 1; return x;");
        // The spin block vanishes; the branch keeps only the fallthrough.
        for node in l.cfg.graph().nodes() {
            assert!(l.cfg.graph().out_degree(node) >= 1 || node == l.cfg.exit());
        }
    }

    #[test]
    fn params_are_entry_definitions() {
        let f = crate::parser::parse_program("fn f(a, b) { return a + b; }").unwrap();
        let l = lower_function(&f.functions[0]).unwrap();
        let a = l.var_id("a").unwrap();
        assert_eq!(l.definition_sites(a), vec![l.cfg.entry()]);
    }

    #[test]
    fn label_without_goto_is_fine() {
        let l = lower("l: x = 1; return x;");
        assert!(l.cfg.node_count() >= 2);
    }
}
