//! Property tests for the front-end: pretty-printer/parser round trips on
//! arbitrary ASTs, and total lowering for well-formed programs.

use proptest::prelude::*;
use pst_lang::{
    lower_function, parse_program, pretty_program, BinOp, Block, Expr, Function, Program, Stmt,
    UnOp,
};

fn ident() -> impl Strategy<Value = String> {
    // Avoid keywords; single letter + digit keeps shrinking pleasant.
    proptest::sample::select(vec!["a", "b", "c", "x", "y", "z", "v1", "v2"])
        .prop_map(str::to_string)
}

fn expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(Expr::Num),
        ident().prop_map(Expr::Var),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                proptest::sample::select(vec![
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::And,
                    BinOp::Or,
                ]),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Binary(op, Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| match a {
                // Mirror the parser's literal folding.
                Expr::Num(n) => Expr::Num(-n),
                e => Expr::Unary(UnOp::Neg, Box::new(e)),
            }),
            (ident(), proptest::collection::vec(inner, 0..3))
                .prop_map(|(f, args)| Expr::Call(format!("f{f}"), args)),
        ]
    })
}

fn assign() -> BoxedStrategy<Stmt> {
    (ident(), expr())
        .prop_map(|(target, value)| Stmt::Assign { target, value })
        .boxed()
}

/// Statements; `in_loop` guards break/continue placement so lowering is
/// total.
fn stmt(depth: u32, in_loop: bool) -> BoxedStrategy<Stmt> {
    if depth == 0 {
        return assign();
    }
    let block =
        |in_loop| proptest::collection::vec(stmt(depth - 1, in_loop), 0..4).prop_map(Block::new);
    let mut options: Vec<BoxedStrategy<Stmt>> = vec![
        assign(),
        (expr()).prop_map(Stmt::Expr).boxed(),
        (expr(), block(in_loop), proptest::option::of(block(in_loop)))
            .prop_map(|(cond, then_branch, else_branch)| Stmt::If {
                cond,
                then_branch,
                else_branch,
            })
            .boxed(),
        (expr(), block(true))
            .prop_map(|(cond, body)| Stmt::While { cond, body })
            .boxed(),
        (block(true), expr())
            .prop_map(|(body, cond)| Stmt::DoWhile { body, cond })
            .boxed(),
        // Switch arms may `break` (the switch catches it) but `continue`
        // only when an enclosing loop exists; generating with the
        // *enclosing* context under-generates legal breaks but never
        // generates an illegal continue.
        (
            proptest::collection::vec((0i64..5, block(in_loop)), 1..3),
            proptest::option::of(block(in_loop)),
            expr(),
        )
            .prop_map(|(cases, default, scrutinee)| Stmt::Switch {
                scrutinee,
                cases,
                default,
            })
            .boxed(),
    ];
    if in_loop {
        options.push(Just(Stmt::Break).boxed());
        options.push(Just(Stmt::Continue).boxed());
    }
    proptest::strategy::Union::new(options).boxed()
}

fn function() -> impl Strategy<Value = Function> {
    (
        proptest::collection::vec(ident(), 0..3),
        proptest::collection::vec(stmt(3, false), 0..6),
    )
        .prop_map(|(params, mut stmts)| {
            // Deduplicate parameter names (duplicates are legal but make
            // the round trip comparison awkward? they round trip fine —
            // keep them).
            stmts.push(Stmt::Return(Some(Expr::Num(0))));
            Function {
                name: "p".to_string(),
                params,
                body: Block::new(stmts),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print ∘ parse = identity on arbitrary ASTs.
    #[test]
    fn pretty_parse_roundtrip(f in function()) {
        let program = Program { functions: vec![f] };
        let printed = pretty_program(&program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{printed}"));
        prop_assert_eq!(program, reparsed);
    }

    /// Lowering is total on goto-free programs with well-placed
    /// break/continue, and always yields a valid CFG with the function's
    /// statements preserved somewhere.
    #[test]
    fn lowering_is_total_and_valid(f in function()) {
        let lowered = lower_function(&f).expect("goto-free programs lower");
        prop_assert!(lowered.cfg.node_count() >= 2);
        prop_assert_eq!(lowered.cfg.graph().in_degree(lowered.cfg.entry()), 0);
        prop_assert_eq!(lowered.cfg.graph().out_degree(lowered.cfg.exit()), 0);
        // Reducible: no gotos were generated.
        prop_assert!(pst_cfg::is_reducible(
            lowered.cfg.graph(),
            lowered.cfg.entry()
        ));
    }
}
