package pay

import (
	"math"
	"strings"
	"testing"

	"crowdfill/internal/model"
	"crowdfill/internal/sync"
)

func kvSchema(t testing.TB) *model.Schema {
	t.Helper()
	return model.MustSchema("KV", []model.Column{
		{Name: "k", Type: model.TypeString},
		{Name: "v", Type: model.TypeString},
	}, "k")
}

// scenario builds a small hand-checkable run over KV(k,v):
//
//	ts 10  w1 fills k=x on CC row e1        (-> row a1)
//	ts 15  w3 fills v=1 on CC row e2        (-> row c1, never completed)
//	ts 20  w2 fills v=1 on a1               (-> row b1, complete)
//	ts 21  w2 auto-upvotes b1 (row-completing fill)
//	ts 30  w3 upvotes b1
//	ts 40  w2 downvotes the partial value (y, ·)
//
// Final table: {b1 = (x, 1), up=2} under the default scoring function.
func scenario(t testing.TB) ([]*model.Row, []sync.Message, []sync.Message) {
	t.Helper()
	vec := func(vals ...string) model.Vector { return model.VectorOf(vals...) }
	trace := []sync.Message{
		{Type: sync.MsgReplace, Row: "e1", NewRow: "a1", Vec: vec("x", ""), Col: 0, Val: "x", Worker: "w1", TS: 10e9},
		{Type: sync.MsgReplace, Row: "e2", NewRow: "c1", Vec: vec("", "1"), Col: 1, Val: "1", Worker: "w3", TS: 15e9},
		{Type: sync.MsgReplace, Row: "a1", NewRow: "b1", Vec: vec("x", "1"), Col: 1, Val: "1", Worker: "w2", TS: 20e9},
		{Type: sync.MsgUpvote, Vec: vec("x", "1"), Worker: "w2", Auto: true, TS: 21e9},
		{Type: sync.MsgUpvote, Vec: vec("x", "1"), Worker: "w3", TS: 30e9},
		{Type: sync.MsgDownvote, Vec: vec("y", ""), Worker: "w2", TS: 40e9},
	}
	ccLog := []sync.Message{
		{Type: sync.MsgInsert, Row: "e1", Origin: "cc", TS: 1e9},
		{Type: sync.MsgInsert, Row: "e2", Origin: "cc", TS: 2e9},
	}
	final := []*model.Row{{ID: "b1", Vec: vec("x", "1"), Up: 2}}
	return final, trace, ccLog
}

func TestAnalyzeScenario(t *testing.T) {
	final, trace, ccLog := scenario(t)
	c := Analyze(final, trace, ccLog)

	if len(c.Cells) != 2 {
		t.Fatalf("|C| = %d, want 2: %+v", len(c.Cells), c.Cells)
	}
	// Cell (b1, k): direct = msg 0; w1 was also first to enter x into k and
	// (x,·) ⊆ (x,1), so the same message contributes indirectly.
	k := c.Cells[0]
	if k.Cell.Col != 0 || k.Direct != 0 || k.Indirect != 0 || k.Value != "x" {
		t.Errorf("cell k contribution = %+v", k)
	}
	// Cell (b1, v): direct = msg 2 (w2's completing fill); indirect = msg 1
	// (w3 entered v=1 first, and (·,1) ⊆ (x,1)).
	v := c.Cells[1]
	if v.Cell.Col != 1 || v.Direct != 2 || v.Indirect != 1 || v.Value != "1" {
		t.Errorf("cell v contribution = %+v", v)
	}
	// U excludes the auto-upvote; D keeps the consistent downvote.
	if len(c.Upvotes) != 1 || c.Upvotes[0] != 4 {
		t.Errorf("U = %v, want [4]", c.Upvotes)
	}
	if len(c.Downvotes) != 1 || c.Downvotes[0] != 5 {
		t.Errorf("D = %v, want [5]", c.Downvotes)
	}
}

func TestAnalyzeTemplateValueHasNoIndirect(t *testing.T) {
	// The CC seeds k=x before any worker; the worker re-entering x gets
	// direct credit only.
	vec := func(vals ...string) model.Vector { return model.VectorOf(vals...) }
	ccLog := []sync.Message{
		{Type: sync.MsgInsert, Row: "e0", Origin: "cc", TS: 1e9},
		{Type: sync.MsgReplace, Row: "e0", NewRow: "t0", Vec: vec("x", ""), Col: 0, Val: "x", Origin: "cc", TS: 2e9},
		{Type: sync.MsgInsert, Row: "e1", Origin: "cc", TS: 3e9},
	}
	trace := []sync.Message{
		{Type: sync.MsgReplace, Row: "e1", NewRow: "a1", Vec: vec("x", ""), Col: 0, Val: "x", Worker: "w1", TS: 10e9},
		{Type: sync.MsgReplace, Row: "a1", NewRow: "b1", Vec: vec("x", "1"), Col: 1, Val: "1", Worker: "w1", TS: 20e9},
	}
	final := []*model.Row{{ID: "b1", Vec: vec("x", "1"), Up: 2}}
	c := Analyze(final, trace, ccLog)
	if len(c.Cells) != 2 {
		t.Fatalf("|C| = %d, want 2", len(c.Cells))
	}
	if c.Cells[0].Indirect != -1 {
		t.Errorf("template-provided value must have no indirect contributor: %+v", c.Cells[0])
	}
	if c.Cells[1].Indirect != 1 {
		t.Errorf("fresh value should self-indirect: %+v", c.Cells[1])
	}
}

func TestAnalyzeInconsistentDownvote(t *testing.T) {
	vec := func(vals ...string) model.Vector { return model.VectorOf(vals...) }
	final := []*model.Row{{ID: "b1", Vec: vec("x", "1"), Up: 2}}
	trace := []sync.Message{
		// Downvoting (x, ·) is inconsistent with final row (x, 1): no credit.
		{Type: sync.MsgDownvote, Vec: vec("x", ""), Worker: "w1", TS: 10e9},
	}
	c := Analyze(final, trace, nil)
	if len(c.Downvotes) != 0 {
		t.Errorf("inconsistent downvote must not contribute: %v", c.Downvotes)
	}
}

func TestComputeUniform(t *testing.T) {
	final, trace, ccLog := scenario(t)
	alloc, err := Compute(Input{
		Schema: kvSchema(t), Budget: 10, Scheme: Uniform,
		Final: final, Trace: trace, CCLog: ccLog,
		JoinTime: map[string]int64{"w1": 0, "w2": 0, "w3": 0},
	})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	// b = 10/4 = 2.5. Cell k (key, h=0.25): all 2.5 to w1 (direct+indirect).
	// Cell v (non-key, h=0.5): 1.25 to w2, 1.25 to w3. Upvote 2.5 to w3.
	// Downvote 2.5 to w2.
	want := map[string]float64{"w1": 2.5, "w2": 3.75, "w3": 3.75}
	for w, amt := range want {
		if got := alloc.PerWorker[w]; math.Abs(got-amt) > 1e-9 {
			t.Errorf("PerWorker[%s] = %v, want %v", w, got, amt)
		}
	}
	if math.Abs(alloc.Allocated-10) > 1e-9 {
		t.Errorf("Allocated = %v, want full budget 10", alloc.Allocated)
	}
	// The auto-upvote earns nothing.
	if alloc.PerMessage[3] != 0 {
		t.Errorf("auto-upvote got paid: %v", alloc.PerMessage[3])
	}
}

func TestComputeColumnWeighted(t *testing.T) {
	final, trace, ccLog := scenario(t)
	alloc, err := Compute(Input{
		Schema: kvSchema(t), Budget: 10, Scheme: ColumnWeighted,
		Final: final, Trace: trace, CCLog: ccLog,
		JoinTime: map[string]int64{"w1": 0, "w2": 0, "w3": 0},
	})
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	// Gaps: w1 fill k: 10s (join->10). w2 fill v: 20s. w3 upvote: 30-15=15s.
	// w2 downvote: 40-21=19s. So y_k=10, y_v=20, y_up=15, y_down=19.
	w := alloc.Weights
	if math.Abs(w.Column[0]-10) > 1e-9 || math.Abs(w.Column[1]-20) > 1e-9 {
		t.Errorf("column weights = %v, want [10 20]", w.Column)
	}
	if math.Abs(w.Upvote-15) > 1e-9 || math.Abs(w.Downvote-19) > 1e-9 {
		t.Errorf("vote weights = %v/%v, want 15/19", w.Upvote, w.Downvote)
	}
	// Y = 10+20+15+19 = 64. Cell k pays 10/64*10, cell v 20/64*10, etc.
	y := 64.0
	wantW1 := 10 / y * 10             // whole key cell
	wantW2 := 0.5*(20/y*10) + 19/y*10 // half of v + downvote
	wantW3 := 0.5*(20/y*10) + 15/y*10 // half of v + upvote
	for wk, amt := range map[string]float64{"w1": wantW1, "w2": wantW2, "w3": wantW3} {
		if got := alloc.PerWorker[wk]; math.Abs(got-amt) > 1e-9 {
			t.Errorf("PerWorker[%s] = %v, want %v", wk, got, amt)
		}
	}
	if math.Abs(alloc.Allocated-10) > 1e-9 {
		t.Errorf("Allocated = %v, want 10", alloc.Allocated)
	}
}

// dualTrace builds a key column filled with progressively slower values by
// one worker, so the dual-weighted spread activates.
func dualTrace(t testing.TB, nKeys int) ([]*model.Row, []sync.Message, []sync.Message) {
	t.Helper()
	var trace, ccLog []sync.Message
	var final []*model.Row
	ts := int64(0)
	for i := 0; i < nKeys; i++ {
		e := model.RowID(rid("e", i))
		a := model.RowID(rid("a", i))
		b := model.RowID(rid("b", i))
		ccLog = append(ccLog, sync.Message{Type: sync.MsgInsert, Row: e, Origin: "cc", TS: ts})
		// Key fills take 10s, 20s, 30s, ... — later keys are harder.
		ts += int64(10*(i+1)) * 1e9
		key := string(rune('a' + i))
		trace = append(trace, sync.Message{Type: sync.MsgReplace, Row: e, NewRow: a, Vec: model.VectorOf(key, ""), Col: 0, Val: key, Worker: "w1", TS: ts})
		ts += 1e9
		trace = append(trace, sync.Message{Type: sync.MsgReplace, Row: a, NewRow: b, Vec: model.VectorOf(key, "1"), Col: 1, Val: "1", Worker: "w2", TS: ts})
		final = append(final, &model.Row{ID: b, Vec: model.VectorOf(key, "1"), Up: 2})
	}
	return final, trace, ccLog
}

func rid(p string, i int) string { return p + string(rune('0'+i)) }

func TestComputeDualWeighted(t *testing.T) {
	final, trace, ccLog := dualTrace(t, 4)
	in := Input{
		Schema: kvSchema(t), Budget: 12, Scheme: DualWeighted,
		Final: final, Trace: trace, CCLog: ccLog,
		JoinTime: map[string]int64{"w1": 0, "w2": 0},
	}
	dual, err := Compute(in)
	if err != nil {
		t.Fatalf("Compute dual: %v", err)
	}
	if dual.Weights.Z[0] <= 0 {
		t.Fatalf("z for the key column should be positive, got %v", dual.Weights.Z[0])
	}
	// Key-cell pay must increase with first-appearance order and average to
	// the flat column-weighted value.
	var keyPays []float64
	for i, c := range dual.Contrib.Cells {
		if c.Cell.Col == 0 {
			keyPays = append(keyPays, dual.CellPay[i])
		}
	}
	if len(keyPays) != 4 {
		t.Fatalf("key cells = %d, want 4", len(keyPays))
	}
	in.Scheme = ColumnWeighted
	colw, err := Compute(in)
	if err != nil {
		t.Fatalf("Compute column: %v", err)
	}
	var flat float64
	for i, c := range colw.Contrib.Cells {
		if c.Cell.Col == 0 {
			flat = colw.CellPay[i]
			break
		}
	}
	sum := 0.0
	for i := 0; i < len(keyPays); i++ {
		sum += keyPays[i]
		if i > 0 && keyPays[i] <= keyPays[i-1] {
			t.Errorf("key pay should increase: %v", keyPays)
		}
	}
	if math.Abs(sum/4-flat) > 1e-9 {
		t.Errorf("dual key pays average %v, column-weighted flat %v", sum/4, flat)
	}
	// Non-key cells unchanged by the dual spread.
	for i, c := range dual.Contrib.Cells {
		if c.Cell.Col == 1 && math.Abs(dual.CellPay[i]-colw.CellPay[i]) > 1e-9 {
			t.Errorf("non-key cell pay changed under dual: %v vs %v", dual.CellPay[i], colw.CellPay[i])
		}
	}
}

func TestComputeBudgetNeverExceeded(t *testing.T) {
	final, trace, ccLog := scenario(t)
	for _, scheme := range []Scheme{Uniform, ColumnWeighted, DualWeighted} {
		alloc, err := Compute(Input{
			Schema: kvSchema(t), Budget: 10, Scheme: scheme,
			Final: final, Trace: trace, CCLog: ccLog,
			JoinTime: map[string]int64{"w1": 0, "w2": 0, "w3": 0},
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if alloc.Allocated > 10+1e-9 {
			t.Errorf("%v allocated %v > budget", scheme, alloc.Allocated)
		}
		sum := 0.0
		for _, amt := range alloc.PerWorker {
			sum += amt
		}
		if math.Abs(sum-alloc.Allocated) > 1e-9 {
			t.Errorf("%v: per-worker sum %v != allocated %v", scheme, sum, alloc.Allocated)
		}
	}
}

func TestComputeSplitOverride(t *testing.T) {
	final, trace, ccLog := scenario(t)
	alloc, err := Compute(Input{
		Schema: kvSchema(t), Budget: 10, Scheme: Uniform,
		Final: final, Trace: trace, CCLog: ccLog,
		JoinTime:    map[string]int64{"w1": 0, "w2": 0, "w3": 0},
		SplitNonKey: 1.0, // direct takes all of column v, the only non-key column
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cell v: 2.5 all to w2 now; w3 only keeps the upvote.
	if got := alloc.PerWorker["w3"]; math.Abs(got-2.5) > 1e-9 {
		t.Errorf("w3 = %v, want 2.5", got)
	}
	if got := alloc.PerWorker["w2"]; math.Abs(got-5.0) > 1e-9 {
		t.Errorf("w2 = %v, want 5.0", got)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(Input{}); err == nil {
		t.Errorf("missing schema should fail")
	}
	if _, err := Compute(Input{Schema: kvSchema(t), Budget: -1}); err == nil {
		t.Errorf("negative budget should fail")
	}
	bad := []sync.Message{{Type: sync.MsgUpvote, TS: 10}, {Type: sync.MsgUpvote, TS: 5}}
	if _, err := Compute(Input{Schema: kvSchema(t), Trace: bad}); err == nil {
		t.Errorf("unordered trace should fail")
	}
	if _, err := Compute(Input{Schema: kvSchema(t), Scheme: Scheme(9)}); err == nil {
		t.Errorf("unknown scheme should fail")
	}
}

func TestComputeEmptyTrace(t *testing.T) {
	alloc, err := Compute(Input{Schema: kvSchema(t), Budget: 10, Scheme: ColumnWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Allocated != 0 || len(alloc.PerWorker) != 0 {
		t.Fatalf("empty run should allocate nothing: %+v", alloc)
	}
}

func TestSchemeParseRoundTrip(t *testing.T) {
	for _, s := range []Scheme{Uniform, ColumnWeighted, DualWeighted} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Errorf("bogus scheme should fail")
	}
}

func TestMAPE(t *testing.T) {
	actual := map[string]float64{"a": 10, "b": 20}
	est := map[string]float64{"a": 11, "b": 16}
	// |1/10| + |4/20| = 0.1 + 0.2 -> mean 0.15 -> 15%.
	if got := MAPE(actual, est); math.Abs(got-15) > 1e-9 {
		t.Errorf("MAPE = %v, want 15", got)
	}
	if got := MAPE(map[string]float64{"a": 0}, est); got != 0 {
		t.Errorf("MAPE with zero actuals = %v, want 0", got)
	}
}

func TestMedianAndFitZ(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := fitZ([]float64{5}); got != 0 {
		t.Errorf("fitZ single = %v", got)
	}
	// Perfectly flat times: z = 0.
	if got := fitZ([]float64{10, 10, 10, 10}); got != 0 {
		t.Errorf("fitZ flat = %v", got)
	}
	// Strongly increasing times: z clamps to 1.
	if got := fitZ([]float64{1, 100, 200, 400}); got != 1 {
		t.Errorf("fitZ steep = %v, want 1", got)
	}
	// Decreasing times: z clamps to 0.
	if got := fitZ([]float64{40, 30, 20, 10}); got != 0 {
		t.Errorf("fitZ decreasing = %v, want 0", got)
	}
	// Moderate increase: 0 < z < 1 and matches the closed form.
	times := []float64{10, 12, 14, 16}
	got := fitZ(times)
	if got <= 0 || got >= 1 {
		t.Errorf("fitZ moderate = %v, want in (0,1)", got)
	}
	// α=13, β=2 -> z = 2*(4-1)/(2*13) = 3/13.
	if want := 3.0 / 13.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("fitZ = %v, want %v", got, want)
	}
}

func TestStatement(t *testing.T) {
	final, trace, ccLog := scenario(t)
	alloc, err := Compute(Input{
		Schema: kvSchema(t), Budget: 10, Scheme: Uniform,
		Final: final, Trace: trace, CCLog: ccLog,
		JoinTime: map[string]int64{"w1": 0, "w2": 0, "w3": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"k", "v"}
	lines := alloc.Statement("w2", trace, cols, 0)
	// w2 earned from the completing fill (half of cell v) and the downvote.
	if len(lines) != 2 {
		t.Fatalf("w2 statement lines = %d: %+v", len(lines), lines)
	}
	if lines[0].Kind != "fill v" || lines[1].Kind != "downvote" {
		t.Fatalf("statement kinds = %v %v", lines[0].Kind, lines[1].Kind)
	}
	var total float64
	for _, l := range lines {
		total += l.Amount
	}
	if math.Abs(total-alloc.PerWorker["w2"]) > 1e-9 {
		t.Fatalf("statement total %v != pay %v", total, alloc.PerWorker["w2"])
	}
	// The auto-upvote never appears on a statement.
	for _, l := range alloc.Statement("w2", trace, cols, 0) {
		if l.TraceIdx == 3 {
			t.Fatalf("auto-upvote on statement")
		}
	}
	text := alloc.FormatStatement("w2", trace, cols, 0)
	if !strings.Contains(text, "total") || !strings.Contains(text, "fill v") {
		t.Fatalf("formatted statement wrong:\n%s", text)
	}
}
