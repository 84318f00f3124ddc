"""Proportionality triples: counting when two twisted maps agree.

For invertible q-polynomials f, g a triple (a, b, c) qualifies when
a * f(b * f^-1(X)) == g(c * g^-1(X)) as maps.  The largest family of
triples that is pairwise distinct in every coordinate (an exact 3D
matching) is the invariant m(f, g) driving the linearity obstructions.
Run with:  python3 demos/04_prop_triples.py
"""

from addmds import (
    LinearizedPoly,
    build_zero_coeff_certificate,
    field_create,
    invertible_linearized,
    max_prop_m,
    prop_triples,
    twist_to_nonzero_f0,
    verify_inverse_lemma,
    verify_semilinear_criterion,
    verify_two_nonzero_lemma,
    verify_zero_coeff_lemma,
    zero_coeff_bound,
)

f9 = field_create(3, 1, 2)
X = LinearizedPoly.identity(f9)

# 1. For f = g = X the condition collapses to aX(bX) = c X, so the triples
#    are exactly (a, b, ab).
triples = prop_triples(X, X)
print("triples for (X, X):", len(triples))
m, witness = max_prop_m(X, X)
print("m(X, X) =", m, "  (q odd caps it below q^h - 1 = 8)")
print("witness triples:", witness.triples)

# Over F_25 the triples of (X, X) are the whole Cayley table of F_25^*,
# N = 24.  N distinct a would multiply to prod(c)/prod(b) = 1, but all of
# F_25^* multiplies to -1 (Wilson), so m <= N - 1: the search stops there.
f25 = field_create(5, 1, 2)
X25 = LinearizedPoly.identity(f25)
print("m(X, X) over F_25 =", max_prop_m(X25, X25)[0], "  (the product bound q^h - 2)")

# 2. A dense pair scores low.
inv = invertible_linearized(f9)
f = next(p for p in inv if p.zero_coeff_count() == 0)
print("m(f, f) for dense f:", max_prop_m(f, f)[0])

# 3. The zero-coefficient dichotomy over GF(9): any pair scoring above
#    max(q^(h-1), h*q - 1) = 5 must have matching zero-coefficient counts.
print("bound:", zero_coeff_bound(f9))
report = verify_zero_coeff_lemma(f9)
print("pairs:", report["pairs"], " above bound:", report["qualifying_pairs"],
      " violations:", len(report["violations"]))

# 4. Each qualifying pair carries a matrix-identity certificate that can be
#    rebuilt and re-validated independently.
fn, _ = twist_to_nonzero_f0(f)
cert = build_zero_coeff_certificate(fn, fn, max_prop_m(fn, fn)[1].triples)
print("certificate validates:", cert.validate())

# 5. The inverse construction preserves m: (f, g), (f^-1, f^-1 o g) and
#    (g^-1, g^-1 o f) all score the same, with explicitly transferred
#    witnesses.
g = next(p for p in inv if p is not f and p.zero_coeff_count() == 0)
inv_report = verify_inverse_lemma(f, g)
print("m equal across inverse pairs:", inv_report["scores_equal"])

# 6. Companion exhaustive verifiers.
print("semilinear criterion ok:", verify_semilinear_criterion(f9)["ok"])
f27 = field_create(3, 1, 3)
two = verify_two_nonzero_lemma(f27)
print("two-term maps with dense inverse:",
      two["qualifying"], "of", two["two_term_candidates"],
      " ok:", two["ok"])
