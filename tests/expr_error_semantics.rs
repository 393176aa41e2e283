//! Dynamic-error parity between compiled expression programs and the
//! IR tree-walker. A lowered program must raise exactly the error the
//! tree-walker raises — same code, same message, and the same
//! first-failing-tuple selection — because programs call the
//! evaluator's own scalar kernels rather than reimplementing their
//! semantics.

use xqa::{DynamicContext, Engine, EngineOptions, ExprEvalMode};

/// Runs `query` under both evaluation modes; both runs must fail with
/// identically rendered errors, and the message must mention `expect`
/// (an error code or message fragment).
fn assert_error_parity(query: &str, expect: &str) {
    let ctx = DynamicContext::new();
    let [bytecode, tree] = [ExprEvalMode::Bytecode, ExprEvalMode::Tree].map(|mode| {
        let engine = Engine::with_options(EngineOptions {
            expr_eval: mode,
            ..Default::default()
        });
        engine
            .compile(query)
            .unwrap_or_else(|e| panic!("compile ({mode:?}): {e}\n{query}"))
            .run(&ctx)
            .expect_err("query must raise a dynamic error")
            .to_string()
    });
    assert!(
        bytecode.contains(expect),
        "expected error mentioning {expect:?}, got: {bytecode}\n{query}"
    );
    assert_eq!(
        bytecode, tree,
        "bytecode and tree raise different errors for:\n{query}"
    );
}

#[test]
fn arith_type_error_parity() {
    assert_error_parity(
        "for $x in 1 to 100 let $y := $x + \"a\" return $y",
        "XPTY0004",
    );
}

#[test]
fn division_by_zero_parity() {
    assert_error_parity(
        "for $x in 1 to 100 let $y := $x idiv ($x - $x) return $y",
        "integer division by zero",
    );
}

#[test]
fn modulus_by_zero_parity() {
    assert_error_parity(
        "for $x in 1 to 100 where $x mod ($x - $x) = 0 return $x",
        "modulus by zero",
    );
}

#[test]
fn integer_overflow_parity() {
    assert_error_parity(
        "for $x in 1 to 10 let $y := 9223372036854775807 + $x return $y",
        "integer overflow",
    );
}

#[test]
fn cast_failure_parity() {
    // The `for` binding is a literal sequence (lowering declines), but
    // the failing cast sits in a lowered `let` program: the error
    // fires at the third tuple in both evaluators.
    assert_error_parity(
        "for $s in (\"1\", \"2\", \"x\") let $n := $s cast as xs:integer return $n",
        "cannot cast",
    );
}

#[test]
fn empty_cast_without_optional_parity() {
    assert_error_parity(
        "for $x in 1 to 3 let $e := () cast as xs:integer return $e",
        "cast of an empty sequence",
    );
}

#[test]
fn comparison_type_error_parity() {
    assert_error_parity("for $x in 1 to 50 where $x eq \"a\" return $x", "XPTY0004");
}

/// A long input where two different tuples raise two *different*
/// errors: the scan hits the division at $x = 1200 before the type
/// error at $x = 2500, so both modes must surface the division error,
/// proving first-failing-tuple selection is preserved through compiled
/// programs.
#[test]
fn first_failing_morsel_parity() {
    assert_error_parity(
        "for $x in 1 to 4000 \
         let $y := if ($x = 1200) then $x idiv ($x - $x) \
                   else if ($x = 2500) then $x + \"a\" \
                   else $x \
         return $y",
        "integer division by zero",
    );
}

/// The same shape with only the later (type) error left in place:
/// proves the harness above really can observe the other error, so the
/// first-failing-tuple assertion is not vacuous.
#[test]
fn later_morsel_error_surfaces_when_alone() {
    assert_error_parity(
        "for $x in 1 to 4000 \
         let $y := if ($x = 2500) then $x + \"a\" else $x \
         return $y",
        "XPTY0004",
    );
}
