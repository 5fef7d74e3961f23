//! Seeded random program generator.
//!
//! Produces syntactically valid mini-language functions with a realistic
//! mix of control structure: mostly structured conditionals, loops and
//! switches (the paper finds 182 of 254 procedures completely structured),
//! plus a configurable fraction of *goto templates* that introduce
//! unstructured — and occasionally irreducible — control flow without ever
//! producing an invalid CFG.

use pst_lang::{BinOp, Block, Expr, Function, Stmt, UnOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for the generator.
#[derive(Clone, Debug)]
pub struct ProgramGenConfig {
    /// Approximate number of statements to emit.
    pub target_stmts: usize,
    /// Maximum nesting depth of structured constructs.
    pub max_depth: usize,
    /// Number of distinct scalar variables to draw from.
    pub num_vars: usize,
    /// Probability that a compound-statement slot becomes a goto template
    /// (unstructured control flow).
    pub goto_prob: f64,
    /// Probability that a compound slot is a loop (vs conditional/switch).
    pub loop_prob: f64,
}

impl Default for ProgramGenConfig {
    fn default() -> Self {
        ProgramGenConfig {
            target_stmts: 40,
            max_depth: 5,
            num_vars: 8,
            goto_prob: 0.04,
            loop_prob: 0.3,
        }
    }
}

/// Generates one deterministic random function.
///
/// The same `(config, seed)` pair always produces the same AST. The
/// function is guaranteed to lower to a valid CFG
/// ([`pst_lang::lower_function`] cannot fail on generator output — the
/// property tests check this across seeds).
///
/// # Examples
///
/// ```
/// use pst_workloads::{generate_function, ProgramGenConfig};
/// let f = generate_function("p0", &ProgramGenConfig::default(), 7);
/// let lowered = pst_lang::lower_function(&f).unwrap();
/// assert!(lowered.cfg.node_count() >= 2);
/// ```
pub fn generate_function(name: &str, config: &ProgramGenConfig, seed: u64) -> Function {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gen = Gen {
        config: config.clone(),
        rng: &mut rng,
        budget: config.target_stmts as i64,
        label_counter: 0,
    };
    let params: Vec<String> = (0..1 + gen.rng.gen_range(0..3))
        .map(|i| format!("p{i}"))
        .collect();
    let mut stmts = Vec::new();
    // Seed every variable so uses are never of undefined names (harmless
    // for CFG shape, keeps SSA examples meaningful).
    for v in 0..config.num_vars {
        stmts.push(Stmt::Assign {
            target: format!("v{v}"),
            value: Expr::Num(v as i64),
        });
    }
    // Top level: keep emitting until the statement budget is spent (inner
    // blocks are bounded locally by `stmt_list`).
    while gen.budget > 0 {
        gen.stmt(&mut stmts, 0);
    }
    stmts.push(Stmt::Return(Some(gen.expr(1))));
    Function {
        name: name.to_string(),
        params,
        body: Block::new(stmts),
    }
}

struct Gen<'r> {
    config: ProgramGenConfig,
    rng: &'r mut StdRng,
    budget: i64,
    label_counter: u32,
}

impl Gen<'_> {
    fn var(&mut self) -> String {
        format!("v{}", self.rng.gen_range(0..self.config.num_vars))
    }

    fn fresh_label(&mut self) -> String {
        self.label_counter += 1;
        format!("L{}", self.label_counter)
    }

    fn expr(&mut self, depth: usize) -> Expr {
        if depth == 0 || self.rng.gen_bool(0.4) {
            return if self.rng.gen_bool(0.7) {
                Expr::Var(self.var())
            } else {
                Expr::Num(self.rng.gen_range(-4..10))
            };
        }
        match self.rng.gen_range(0..8) {
            // Negated literals fold to plain literals (mirrors the parser).
            0 => match self.expr(depth - 1) {
                Expr::Num(n) => Expr::Num(-n),
                e => Expr::Unary(UnOp::Neg, Box::new(e)),
            },
            1 => Expr::Call(
                format!("f{}", self.rng.gen_range(0..3)),
                vec![self.expr(depth - 1)],
            ),
            _ => {
                let ops = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::And,
                ];
                let op = ops[self.rng.gen_range(0..ops.len())];
                Expr::Binary(
                    op,
                    Box::new(self.expr(depth - 1)),
                    Box::new(self.expr(depth - 1)),
                )
            }
        }
    }

    fn cond(&mut self) -> Expr {
        Expr::Binary(
            if self.rng.gen_bool(0.5) {
                BinOp::Lt
            } else {
                BinOp::Ne
            },
            Box::new(Expr::Var(self.var())),
            Box::new(self.expr(1)),
        )
    }

    fn assign(&mut self) -> Stmt {
        Stmt::Assign {
            target: self.var(),
            value: self.expr(2),
        }
    }

    /// Emits statements into `out` until the local share of the budget is
    /// spent.
    fn stmt_list(&mut self, out: &mut Vec<Stmt>, depth: usize) {
        let locally = 1 + self.rng.gen_range(0..6);
        for _ in 0..locally {
            if self.budget <= 0 {
                return;
            }
            self.stmt(out, depth);
        }
    }

    fn stmt(&mut self, out: &mut Vec<Stmt>, depth: usize) {
        self.budget -= 1;
        // Leaf statements dominate, like real code, and nesting gets
        // exponentially rarer with depth — real programs are broad and
        // shallow (the paper's Figure 5).
        let leaf_prob = (0.45 + 0.16 * depth as f64).min(0.97);
        if depth >= self.config.max_depth || self.rng.gen_bool(leaf_prob) {
            out.push(self.assign());
            return;
        }
        if self.rng.gen_bool(self.config.goto_prob) {
            self.goto_template(out, depth);
            return;
        }
        if self.rng.gen_bool(self.config.loop_prob) {
            match self.rng.gen_range(0..3) {
                0 => {
                    let mut body = Vec::new();
                    self.stmt_list(&mut body, depth + 1);
                    self.maybe_break_continue(&mut body);
                    out.push(Stmt::While {
                        cond: self.cond(),
                        body: Block::new(body),
                    });
                }
                1 => {
                    let mut body = Vec::new();
                    self.stmt_list(&mut body, depth + 1);
                    out.push(Stmt::DoWhile {
                        body: Block::new(body),
                        cond: self.cond(),
                    });
                }
                _ => {
                    let mut body = Vec::new();
                    self.stmt_list(&mut body, depth + 1);
                    let i = self.var();
                    out.push(Stmt::For {
                        init: Box::new(Stmt::Assign {
                            target: i.clone(),
                            value: Expr::Num(0),
                        }),
                        cond: Expr::Binary(
                            BinOp::Lt,
                            Box::new(Expr::Var(i.clone())),
                            Box::new(self.expr(1)),
                        ),
                        step: Box::new(Stmt::Assign {
                            target: i.clone(),
                            value: Expr::Binary(
                                BinOp::Add,
                                Box::new(Expr::Var(i)),
                                Box::new(Expr::Num(1)),
                            ),
                        }),
                        body: Block::new(body),
                    });
                }
            }
            return;
        }
        if self.rng.gen_bool(0.2) {
            // switch with 2-4 arms
            let arms = 2 + self.rng.gen_range(0..3);
            let mut cases = Vec::new();
            for k in 0..arms {
                let mut body = Vec::new();
                self.stmt_list(&mut body, depth + 1);
                cases.push((k as i64, Block::new(body)));
            }
            let default = if self.rng.gen_bool(0.6) {
                let mut body = Vec::new();
                self.stmt_list(&mut body, depth + 1);
                Some(Block::new(body))
            } else {
                None
            };
            out.push(Stmt::Switch {
                scrutinee: Expr::Var(self.var()),
                cases,
                default,
            });
            return;
        }
        // Conditional.
        let mut then_branch = Vec::new();
        self.stmt_list(&mut then_branch, depth + 1);
        let else_branch = if self.rng.gen_bool(0.5) {
            let mut b = Vec::new();
            self.stmt_list(&mut b, depth + 1);
            Some(Block::new(b))
        } else {
            None
        };
        out.push(Stmt::If {
            cond: self.cond(),
            then_branch: Block::new(then_branch),
            else_branch,
        });
    }

    /// Occasionally put a guarded break/continue into a loop body.
    fn maybe_break_continue(&mut self, body: &mut Vec<Stmt>) {
        if self.rng.gen_bool(0.3) {
            let stmt = if self.rng.gen_bool(0.5) {
                Stmt::Break
            } else {
                Stmt::Continue
            };
            let pos = self.rng.gen_range(0..=body.len());
            body.insert(
                pos,
                Stmt::If {
                    cond: self.cond(),
                    then_branch: Block::new(vec![stmt]),
                    else_branch: None,
                },
            );
        }
    }

    /// Unstructured-control-flow templates. Each template is closed (labels
    /// defined within) and always lowers to a valid CFG.
    fn goto_template(&mut self, out: &mut Vec<Stmt>, _depth: usize) {
        match self.rng.gen_range(0..4) {
            // Guarded backward goto: an extra retry loop.
            0 => {
                let l = self.fresh_label();
                out.push(Stmt::Label(l.clone()));
                out.push(self.assign());
                out.push(Stmt::If {
                    cond: self.cond(),
                    then_branch: Block::new(vec![Stmt::Goto(l)]),
                    else_branch: None,
                });
            }
            // Forward goto skipping over a straight-line stretch.
            1 => {
                let l = self.fresh_label();
                out.push(Stmt::If {
                    cond: self.cond(),
                    then_branch: Block::new(vec![Stmt::Goto(l.clone())]),
                    else_branch: None,
                });
                out.push(self.assign());
                out.push(self.assign());
                out.push(Stmt::Label(l));
            }
            // Acyclic "crossing jumps" template: two guarded jumps into a
            // shared landing pad — an unstructured dag region.
            2 => {
                let l = self.fresh_label();
                out.push(Stmt::If {
                    cond: self.cond(),
                    then_branch: Block::new(vec![Stmt::Goto(l.clone())]),
                    else_branch: None,
                });
                out.push(self.assign());
                out.push(Stmt::If {
                    cond: self.cond(),
                    then_branch: Block::new(vec![Stmt::Goto(l.clone())]),
                    else_branch: None,
                });
                out.push(self.assign());
                out.push(Stmt::Label(l));
                out.push(self.assign());
            }
            // Irreducible template: two mutually-reachable labels entered
            // from a branch (the classic two-header cycle).
            _ => {
                let a = self.fresh_label();
                let b = self.fresh_label();
                let c = self.fresh_label();
                out.push(Stmt::If {
                    cond: self.cond(),
                    then_branch: Block::new(vec![Stmt::Goto(b.clone())]),
                    else_branch: None,
                });
                out.push(Stmt::Label(a.clone()));
                out.push(self.assign());
                out.push(Stmt::Goto(c.clone()));
                out.push(Stmt::Label(b));
                out.push(self.assign());
                out.push(Stmt::Label(c));
                out.push(Stmt::If {
                    cond: self.cond(),
                    then_branch: Block::new(vec![Stmt::Goto(a)]),
                    else_branch: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pst_lang::{lower_function, parse_program, pretty_function};

    #[test]
    fn deterministic_per_seed() {
        let c = ProgramGenConfig::default();
        assert_eq!(generate_function("f", &c, 5), generate_function("f", &c, 5));
        assert_ne!(generate_function("f", &c, 5), generate_function("f", &c, 6));
    }

    #[test]
    fn every_seed_lowers_cleanly() {
        let c = ProgramGenConfig {
            goto_prob: 0.15, // stress the unstructured templates
            ..ProgramGenConfig::default()
        };
        for seed in 0..200 {
            let f = generate_function("f", &c, seed);
            let lowered =
                lower_function(&f).unwrap_or_else(|e| panic!("seed {seed}: lowering failed: {e}"));
            assert!(lowered.cfg.node_count() >= 2);
        }
    }

    #[test]
    fn generated_source_reparses() {
        let c = ProgramGenConfig::default();
        for seed in 0..20 {
            let f = generate_function("f", &c, seed);
            let printed = pretty_function(&f);
            let p =
                parse_program(&printed).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{printed}"));
            assert_eq!(p.functions[0], f);
        }
    }

    #[test]
    fn target_size_is_roughly_respected() {
        let c = ProgramGenConfig {
            target_stmts: 200,
            ..ProgramGenConfig::default()
        };
        let f = generate_function("f", &c, 1);
        let lowered = lower_function(&f).unwrap();
        let stmts = lowered.statement_count();
        assert!(stmts >= 100, "too small: {stmts}");
    }

    #[test]
    fn goto_templates_produce_irreducible_cfgs_somewhere() {
        let c = ProgramGenConfig {
            goto_prob: 0.3,
            target_stmts: 80,
            ..ProgramGenConfig::default()
        };
        let mut found = false;
        for seed in 0..50 {
            let f = generate_function("f", &c, seed);
            let lowered = lower_function(&f).unwrap();
            if !pst_cfg::is_reducible(lowered.cfg.graph(), lowered.cfg.entry()) {
                found = true;
                break;
            }
        }
        assert!(found, "no irreducible CFG in 50 seeds");
    }
}
