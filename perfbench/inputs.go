package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// This file derives every workload input from the seed: velocity
// arrays, expression texts and their float64 references, and the
// request draws. The program only ever sees the generated arrays and
// texts.

// term is a generated expression over the inputs u, v, w that the
// benchmark can also evaluate itself in float64.
type term interface {
	text() string
	// eval returns the term's float64 value and its magnitude: the
	// same expression with every operand replaced by its absolute
	// value, which bounds the float32 rounding error the program's
	// result may carry.
	eval(u, v, w float64) (val, mag float64)
}

type varTerm string

func (t varTerm) text() string { return string(t) }
func (t varTerm) eval(u, v, w float64) (float64, float64) {
	x := u
	switch t {
	case "v":
		x = v
	case "w":
		x = w
	}
	return x, math.Abs(x)
}

// constTerm is a constant with four decimals, so its text and its
// value are the same number.
type constTerm float64

// randConst draws a constant in [lo, lo+span) rounded to four decimals.
func randConst(r *rand.Rand, lo, span float64) constTerm {
	return constTerm(math.Round((lo+span*r.Float64())*1e4) / 1e4)
}

func (t constTerm) text() string { return strconv.FormatFloat(float64(t), 'f', 4, 64) }
func (t constTerm) eval(_, _, _ float64) (float64, float64) {
	return float64(t), math.Abs(float64(t))
}

type binTerm struct {
	op   byte
	a, b term
}

func (t binTerm) text() string { return "(" + t.a.text() + " " + string(t.op) + " " + t.b.text() + ")" }
func (t binTerm) eval(u, v, w float64) (float64, float64) {
	a, am := t.a.eval(u, v, w)
	b, bm := t.b.eval(u, v, w)
	switch t.op {
	case '+':
		return a + b, am + bm
	case '-':
		return a - b, am + bm
	default:
		return a * b, am * bm
	}
}

// sqrtTerm is sqrt(x*x + y*y + c): always defined, and smooth enough
// that its float32 error stays proportional to its magnitude.
type sqrtTerm struct {
	x, y term
	c    constTerm
}

func (t sqrtTerm) text() string {
	return fmt.Sprintf("sqrt(%s*%s + %s*%s + %s)", t.x.text(), t.x.text(), t.y.text(), t.y.text(), t.c.text())
}
func (t sqrtTerm) eval(u, v, w float64) (float64, float64) {
	x, xm := t.x.eval(u, v, w)
	y, ym := t.y.eval(u, v, w)
	c, cm := t.c.eval(u, v, w)
	val := math.Sqrt(x*x + y*y + c)
	return val, val + math.Sqrt(xm*xm+ym*ym+cm)
}

// randOp draws one of the three binary operators, all of which cost
// one elementwise node.
func randOp(r *rand.Rand) byte { return "+-*"[r.Intn(3)] }

// scaled is (x OP c) for a random operator and a constant in [1.25,
// 3.25): never 0 or 1, so no optimisation pass can fold it away.
func scaled(r *rand.Rand, x string) term {
	return binTerm{op: randOp(r), a: varTerm(x), b: randConst(r, 1.25, 2)}
}

// pairTerm is ((x OP c1) OP (y OP c2)): a seeded term of fixed shape,
// so every draw costs the program the same number of nodes whatever
// the seed.
func pairTerm(r *rand.Rand, x, y string) term {
	return binTerm{op: randOp(r), a: scaled(r, x), b: scaled(r, y)}
}

// exprCase is one generated expression program: its text and the
// float64 reference evaluator of its last statement.
type exprCase struct {
	text string
	ref  func(u, v, w float64) (val, mag float64)
}

// hotExprs draws count distinct programs of one fixed shape for the
// serve-hot mix:
//
//	r = ((u OP c) OP (v OP c)) OP ((w OP c) OP sqrt(u*u + v*v + c))
//
// Operators and constants vary with the seed; the node count does not,
// so the mix's cost is the same for every seed.
func hotExprs(r *rand.Rand, count int) []exprCase {
	seen := map[string]bool{}
	var out []exprCase
	for len(out) < count {
		t := binTerm{op: randOp(r),
			a: pairTerm(r, "u", "v"),
			b: binTerm{op: randOp(r), a: scaled(r, "w"),
				b: sqrtTerm{x: varTerm("u"), y: varTerm("v"), c: randConst(r, 1.25, 2)}}}
		text := "r = " + t.text()
		if seen[text] {
			continue
		}
		seen[text] = true
		out = append(out, exprCase{text: text, ref: t.eval})
	}
	return out
}

// velmagRef is sqrt(u*u + v*v + w*w), the subtree every serve-batch
// expression shares.
func velmagRef(u, v, w float64) float64 { return math.Sqrt(u*u + v*v + w*w) }

// batchExprs draws count distinct programs that all compute the
// velocity magnitude first, so batched members share that subtree:
//
//	m = sqrt(u*u + v*v + w*w)
//	r = m * c + ((u OP c) OP (w OP c))
func batchExprs(r *rand.Rand, count int) []exprCase {
	seen := map[string]bool{}
	var out []exprCase
	for len(out) < count {
		c := randConst(r, 1.25, 2)
		t := pairTerm(r, "u", "w")
		text := "m = sqrt(u*u + v*v + w*w)\nr = m * " + c.text() + " + " + t.text()
		if seen[text] {
			continue
		}
		seen[text] = true
		cv := float64(c)
		out = append(out, exprCase{text: text, ref: func(u, v, w float64) (float64, float64) {
			m := velmagRef(u, v, w)
			tv, tm := t.eval(u, v, w)
			return m*cv + tv, m*cv + tm
		}})
	}
	return out
}

// randArray fills n values uniformly in [-1, 1).
func randArray(r *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(2*r.Float64() - 1)
	}
	return out
}

// velocity is one set of flat input arrays.
type velocity struct{ u, v, w []float32 }

func randVelocity(r *rand.Rand, n int) velocity {
	return velocity{u: randArray(r, n), v: randArray(r, n), w: randArray(r, n)}
}

func (vel velocity) inputs() map[string][]float32 {
	return map[string][]float32{"u": vel.u, "v": vel.v, "w": vel.w}
}

// reference evaluates an expression case over the arrays in float64,
// returning the expected values and the per-element error allowance.
func (c exprCase) reference(vel velocity) (want, tol []float64) {
	want = make([]float64, len(vel.u))
	tol = make([]float64, len(vel.u))
	for i := range vel.u {
		val, mag := c.ref(float64(vel.u[i]), float64(vel.v[i]), float64(vel.w[i]))
		want[i] = val
		tol[i] = flatTol * math.Max(1, mag)
	}
	return want, tol
}

// flatTol is the relative tolerance of the generated expression mixes:
// dfg_test.go's velocity-magnitude tolerance (1e-5), scaled by the
// expression's operand magnitude.
const flatTol = 1e-5

// coldTemplate is one paper expression a cold-expr op extends with a
// unique term: its text, its result name and its reference tolerance.
type coldTemplate struct {
	name, text, result string
	tol                float64
}

// uniqueConst is op i's scale constant: unique to the op (the integer
// part of c*1e6 encodes i), so every op's program text is new.
func uniqueConst(r *rand.Rand, i int) (string, float64) {
	c := 1 + float64(i)/1e6 + float64(r.Intn(1e3))/1e9
	text := strconv.FormatFloat(c, 'f', 9, 64)
	v, _ := strconv.ParseFloat(text, 64)
	return text, v
}

// coldText builds op text: the paper expression, then
// "r = <result> * <c> + <term>".
func coldText(tpl coldTemplate, cText string, t term) string {
	var b strings.Builder
	b.WriteString(tpl.text)
	b.WriteString("\nr = ")
	b.WriteString(tpl.result)
	b.WriteString(" * ")
	b.WriteString(cText)
	b.WriteString(" + ")
	b.WriteString(t.text())
	return b.String()
}
