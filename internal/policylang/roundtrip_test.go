package policylang

import (
	"math/rand"
	"reflect"
	"testing"
)

// genRule produces a random printable rule. Identifiers are drawn from
// a fixed pool so generated text stays lexically valid.
func genRule(rng *rand.Rand) Rule {
	idents := []string{"alpha", "smoke-detected", "x9", "chem-1", "state.fuel", "a_b", "convoy"}
	pick := func() string { return idents[rng.Intn(len(idents))] }

	r := Rule{
		Name:      pick(),
		EventType: pick(),
	}
	if rng.Intn(2) == 0 {
		r.EventType = "*"
	}
	if rng.Intn(2) == 0 {
		r.Priority = rng.Intn(201) - 100
	}
	if rng.Intn(2) == 0 {
		r.Org = pick()
	}
	if rng.Intn(4) != 0 {
		r.When = genExpr(rng, 0, pick)
	}
	r.Forbid = rng.Intn(3) == 0

	act := ActionSpec{}
	if r.Forbid && rng.Intn(2) == 0 {
		act.Category = pick()
	} else {
		act.Name = pick()
		if rng.Intn(2) == 0 {
			act.Target = pick()
		}
		if rng.Intn(2) == 0 {
			act.Category = pick()
		}
		if rng.Intn(2) == 0 {
			act.Outcome = pick()
		}
		for i := 0; i < rng.Intn(3); i++ {
			act.Params = append(act.Params, Param{Key: pick(), Value: genValue(rng)})
		}
		for i := 0; i < rng.Intn(3); i++ {
			act.Effects = append(act.Effects, EffectSpec{
				Variable: pick(),
				Delta:    genDelta(rng),
			})
		}
		for i := 0; i < rng.Intn(3); i++ {
			act.Obligations = append(act.Obligations, pick())
		}
	}
	r.Act = act
	return r
}

// valuePool holds the pieces of param and label values: identifiers,
// and bytes Print must escape or pass through for Parse to return them
// unchanged — a quote, a backslash, control bytes, a multi-byte rune
// and a byte that is not UTF-8.
var valuePool = []string{"alpha", "chem-1", "x9", `"`, `\`, "\n", "\t", "\x07", "é", "\xff"}

func genValue(rng *rand.Rand) string {
	return valuePool[rng.Intn(len(valuePool))] + valuePool[rng.Intn(len(valuePool))]
}

// genDelta avoids zero (printed sign would be ambiguous with +=0/-=0
// both parsing to 0, which is fine for compile but not for AST
// equality) and keeps values representable.
func genDelta(rng *rand.Rand) float64 {
	v := float64(rng.Intn(1000)+1) / 4
	if rng.Intn(2) == 0 {
		return -v
	}
	return v
}

func genExpr(rng *rand.Rand, depth int, pick func() string) Expr {
	if depth > 3 {
		return &CmpExpr{Quantity: pick(), Op: ">", Value: 1}
	}
	switch rng.Intn(6) {
	case 0:
		return &BinaryExpr{Op: OpAnd, Left: genExpr(rng, depth+1, pick), Right: genExpr(rng, depth+1, pick)}
	case 1:
		return &BinaryExpr{Op: OpOr, Left: genExpr(rng, depth+1, pick), Right: genExpr(rng, depth+1, pick)}
	case 2:
		return &NotExpr{Operand: genExpr(rng, depth+1, pick)}
	case 3:
		return &LabelExpr{Label: pick(), Value: genValue(rng)}
	case 4:
		return TrueExpr{}
	default:
		ops := []string{"<", "<=", ">", ">=", "==", "!="}
		return &CmpExpr{
			Quantity: pick(),
			Op:       ops[rng.Intn(len(ops))],
			Value:    genDelta(rng),
		}
	}
}

// Property: Parse(Print(rule)) == rule for randomly generated rules.
func TestPrintParseRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		r := genRule(rng)
		printed := Print(r)
		back, err := ParseOne(printed)
		if err != nil {
			t.Fatalf("iteration %d: ParseOne failed: %v\nrule: %#v\nprinted:\n%s", i, err, r, printed)
		}
		if !reflect.DeepEqual(r, back) {
			t.Fatalf("iteration %d: round trip mismatch\noriginal: %#v\nreparsed: %#v\nprinted:\n%s", i, r, back, printed)
		}
	}
}

// Property: every generated rule compiles.
func TestGeneratedRulesCompileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		r := genRule(rng)
		if _, err := Compile(r, 3); err != nil {
			t.Fatalf("iteration %d: Compile failed: %v\nrule: %#v", i, err, r)
		}
	}
}
