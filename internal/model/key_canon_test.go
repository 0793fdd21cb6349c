package model

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"amped/internal/efficiency"
	"amped/internal/faults"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// fmtScenarioKey is the key's previous encoding, kept as a test oracle: the
// tuple rendered through fmt's %#v, section by section, and hashed. Nested
// pointers render as addresses under %#v, so it only agrees with the binary
// key on tuples whose nested pointers are equal exactly when their values
// are (FuzzScenarioKey interns its tables for that reason).
func fmtScenarioKey(m *transformer.Model, sys *hardware.System, tr Training, eff efficiency.Model) string {
	h := sha256.New()
	fmt.Fprintf(h, "model|%#v\n", *m)
	fmt.Fprintf(h, "system|%#v\n", *sys)
	tr = tr.withDefaults()
	tr.Batch = parallel.Batch{}
	rel := tr.Reliability
	tr.Reliability = nil
	fmt.Fprintf(h, "training|%#v\n", tr)
	if rel.Enabled() {
		fmt.Fprintf(h, "reliability|%#v\n", *rel)
	}
	if eff == nil {
		eff = efficiency.Default()
	}
	fmt.Fprintf(h, "eff|%T|%#v\n", eff, eff)
	return hex.EncodeToString(h.Sum(nil))
}

// forEachLeaf calls fn with the path and value of every exported leaf
// field reachable from v through structs, arrays and non-nil pointers.
// Unexported fields are not descended; their "Type.field" names go into
// hidden, so a caller can check it covers each of them another way.
func forEachLeaf(v reflect.Value, path string, hidden map[string]bool, fn func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				hidden[v.Type().String()+"."+f.Name] = true
				continue
			}
			forEachLeaf(v.Field(i), path+"."+f.Name, hidden, fn)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			forEachLeaf(v.Index(i), fmt.Sprintf("%s[%d]", path, i), hidden, fn)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			forEachLeaf(v.Elem(), path, hidden, fn)
		}
	default:
		fn(path, v)
	}
}

// perturbed calls fresh once per exported leaf field of the value it
// returns (a new addressable value on every call), moves that one leaf off
// its value, and hands the result to check with the leaf's path.
func perturbed(t *testing.T, hidden map[string]bool, fresh func() reflect.Value, check func(path string, v reflect.Value)) {
	t.Helper()
	var paths []string
	forEachLeaf(fresh(), "", hidden, func(path string, _ reflect.Value) { paths = append(paths, path) })
	for _, want := range paths {
		v := fresh()
		forEachLeaf(v, "", hidden, func(path string, leaf reflect.Value) {
			if path != want {
				return
			}
			switch leaf.Kind() {
			case reflect.Bool:
				leaf.SetBool(!leaf.Bool())
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				leaf.SetInt(leaf.Int() + 3)
			case reflect.Float32, reflect.Float64:
				leaf.SetFloat(leaf.Float()*1.5 + 0.25)
			case reflect.String:
				leaf.SetString(leaf.String() + "'")
			default:
				t.Fatalf("%s: no perturbation for kind %s", path, leaf.Kind())
			}
		})
		check(want, v)
	}
}

// keyTablePoints builds the table in keyedEffModels. Moving any one field
// of any point (the perturbation of perturbed) keeps the table valid.
var keyTablePoints = []efficiency.Point{{UB: 1, Eff: 0.2}, {UB: 16, Eff: 0.4}, {UB: 128, Eff: 0.5}}

// keyedEffModels is one instance of every efficiency model a scenario can
// carry, with every field off its zero value.
func keyedEffModels(t *testing.T) []efficiency.Model {
	tbl, err := efficiency.NewTable(keyTablePoints)
	if err != nil {
		t.Fatal(err)
	}
	return []efficiency.Model{
		efficiency.Saturating{A: 0.8, B: 20, Floor: 0.1},
		efficiency.Fixed(0.5),
		tbl,
		efficiency.Roofline{PeakMACs: 1e14, MemBW: 2e12, Hidden: 4096, SeqLen: 2048,
			TPShard: 2, BytesPerElem: 2, KernelOverhead: 4e-6, MaxEff: 0.85},
	}
}

// effVariants returns eff perturbed one leaf at a time, by path: reflection
// over a value model's fields, each point of a table (one built from
// keyTablePoints) rebuilt through NewTable, and, for a ContinuousBatching,
// its occupancy and every variant of its base.
func effVariants(t *testing.T, hidden map[string]bool, eff efficiency.Model) map[string]efficiency.Model {
	out := map[string]efficiency.Model{}
	switch e := eff.(type) {
	case *efficiency.Table:
		for i := range keyTablePoints {
			perturbed(t, hidden, func() reflect.Value {
				p := keyTablePoints[i]
				return reflect.ValueOf(&p).Elem()
			}, func(path string, v reflect.Value) {
				moved := append([]efficiency.Point(nil), keyTablePoints...)
				moved[i] = v.Interface().(efficiency.Point)
				tbl, err := efficiency.NewTable(moved)
				if err != nil {
					t.Fatalf("table point %d%s: %v", i, path, err)
				}
				out[fmt.Sprintf(".points[%d]%s", i, path)] = tbl
			})
		}
	case efficiency.ContinuousBatching:
		out[".Occupancy"] = efficiency.ContinuousBatching{Base: e.Base, Occupancy: e.Occupancy / 2}
		for path, base := range effVariants(t, hidden, e.Base) {
			out[".Base"+path] = efficiency.ContinuousBatching{Base: base, Occupancy: e.Occupancy}
		}
	default:
		perturbed(t, hidden, func() reflect.Value {
			v := reflect.New(reflect.TypeOf(eff)).Elem()
			v.Set(reflect.ValueOf(eff))
			return v
		}, func(path string, v reflect.Value) {
			out[path] = v.Interface().(efficiency.Model)
		})
	}
	return out
}

// TestScenarioKeyEveryField moves each leaf field of every key input, one
// at a time, and requires the key to move with it — except the batch
// schedule, which must not move it. Unexported fields are covered through
// their constructors (Variant.Apply, NewTable), and the test fails on an
// unexported field it does not know how to reach. It also walks every type
// reachable from the key inputs and fails on a kind the encoding rejects
// (a map, func or chan has no canonical value).
func TestScenarioKeyEveryField(t *testing.T) {
	hidden := map[string]bool{}
	baseModel := transformer.Megatron145B()
	baseSys := hardware.CaseStudy1System()
	baseTraining := func() Training {
		tr := Training{NumBatches: 100, ZeROOverhead: 0.1, CommOverlap: 0.2, GradOverlap: 0.3}.withDefaults()
		tr.Reliability = &faults.Spec{AccelMTBF: 5e6, NodeMTBF: 4e6, LinkMTBF: 3e6, CheckpointBW: 2e9,
			RestartTime: 300, CheckpointInterval: 3600, OptimizerBytesPerParam: 12}
		return tr
	}
	key := func(m transformer.Model, sys hardware.System, tr Training, eff efficiency.Model) string {
		return ScenarioKey(&m, &sys, tr, eff)
	}
	base := key(baseModel, baseSys, baseTraining(), nil)
	moves := func(what string, k string) {
		t.Helper()
		if k == base {
			t.Errorf("%s did not move the key", what)
		}
	}

	perturbed(t, hidden, func() reflect.Value {
		m := baseModel
		return reflect.ValueOf(&m).Elem()
	}, func(path string, v reflect.Value) {
		moves("Model"+path, key(v.Interface().(transformer.Model), baseSys, baseTraining(), nil))
	})
	perturbed(t, hidden, func() reflect.Value {
		s := baseSys
		return reflect.ValueOf(&s).Elem()
	}, func(path string, v reflect.Value) {
		moves("System"+path, key(baseModel, v.Interface().(hardware.System), baseTraining(), nil))
	})
	perturbed(t, hidden, func() reflect.Value {
		tr := baseTraining()
		return reflect.ValueOf(&tr).Elem()
	}, func(path string, v reflect.Value) {
		k := key(baseModel, baseSys, v.Interface().(Training), nil)
		if path == ".Batch.Global" || path == ".Batch.Microbatches" {
			if k != base {
				t.Errorf("Training%s moved the key; the batch schedule is a per-point input", path)
			}
			return
		}
		moves("Training"+path, k)
	})

	// The model's variant is unexported: reach it through Variant.Apply,
	// keeping the name Apply decorates so only the variant differs.
	withVariant := func(v transformer.Variant) transformer.Model {
		m, err := v.Apply(baseModel)
		if err != nil {
			t.Fatalf("variant %+v: %v", v, err)
		}
		m.Name = baseModel.Name
		return m
	}
	baseVariant := transformer.Variant{CrossAttention: true}
	varBase := key(withVariant(baseVariant), baseSys, baseTraining(), nil)
	if varBase == base {
		t.Errorf("Model.variant.CrossAttention did not move the key")
	}
	perturbed(t, hidden, func() reflect.Value {
		v := baseVariant
		return reflect.ValueOf(&v).Elem()
	}, func(path string, v reflect.Value) {
		if key(withVariant(v.Interface().(transformer.Variant)), baseSys, baseTraining(), nil) == varBase {
			t.Errorf("Model.variant%s did not move the key", path)
		}
	})

	var effs []efficiency.Model
	for _, e := range keyedEffModels(t) {
		effs = append(effs, e, efficiency.ContinuousBatching{Base: e, Occupancy: 0.8})
	}
	for _, eff := range effs {
		effBase := key(baseModel, baseSys, baseTraining(), eff)
		if effBase == base {
			t.Errorf("%T did not move the key off the default model", eff)
		}
		for path, moved := range effVariants(t, hidden, eff) {
			if key(baseModel, baseSys, baseTraining(), moved) == effBase {
				t.Errorf("%T%s did not move the key", eff, path)
			}
		}
	}

	for name := range hidden {
		switch name {
		case "transformer.Model.variant", "efficiency.Table.points":
		default:
			t.Errorf("unexported field %s is not perturbed by this test", name)
		}
	}

	roots := []reflect.Type{
		reflect.TypeOf(transformer.Model{}), reflect.TypeOf(hardware.System{}),
		reflect.TypeOf(Training{}), reflect.TypeOf(Inference{}),
	}
	for _, e := range effs {
		roots = append(roots, reflect.TypeOf(e))
	}
	seen := map[reflect.Type]bool{}
	var walk func(t0 reflect.Type, path string)
	walk = func(t0 reflect.Type, path string) {
		if seen[t0] {
			return
		}
		seen[t0] = true
		switch t0.Kind() {
		case reflect.Struct:
			for i := 0; i < t0.NumField(); i++ {
				walk(t0.Field(i).Type, path+"."+t0.Field(i).Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(t0.Elem(), path+"[]")
		case reflect.Bool, reflect.String, reflect.Interface,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64:
		default: // map, func, chan, complex, unsafe pointer
			t.Errorf("%s is a %s: the scenario key cannot canonicalize it", path, t0.Kind())
		}
	}
	for _, r := range roots {
		walk(r, r.String())
	}
}

// TestScenarioKeyRejectsUncanonicalKinds: a value the encoding cannot
// canonicalize panics instead of hashing an address or an iteration order.
func TestScenarioKeyRejectsUncanonicalKinds(t *testing.T) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	for _, eff := range []efficiency.Model{mapEff{}, funcEff{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T hashed without a panic", eff)
				}
			}()
			ScenarioKey(&m, &sys, Training{}, eff)
		}()
	}
}

type mapEff map[float64]float64

func (mapEff) Eff(float64) float64 { return 1 }

type funcEff struct{ f func(float64) float64 }

func (funcEff) Eff(float64) float64 { return 1 }

// fuzzScenario is the fuzzer's view of a key tuple: every leaf is settable,
// so fuzzTuple can drive any of them from the input bytes.
type fuzzScenario struct {
	Model    transformer.Model
	Variant  transformer.Variant
	System   hardware.System
	Training Training
	Spec     faults.Spec
	HasSpec  bool
	// EffKind picks nil, Saturating, Fixed, Table or Roofline; Wrap puts a
	// ContinuousBatching around it.
	EffKind    int
	Wrap       bool
	Occupancy  float64
	Saturating efficiency.Saturating
	Fixed      float64
	Roofline   efficiency.Roofline
	TableUB    [3]float64
	TableEff   [3]float64
}

var (
	fuzzInts   = []int64{0, 1, 2, 3, 4, 8, -1, 1024}
	fuzzFloats = []float64{0, math.Copysign(0, -1), 0.25, 0.5, 0.9, 1, 2, 28, -1}
	fuzzNames  = []string{"", "a", "b"}
)

// fuzzTuple builds a key tuple from fuzz bytes. Each 2-byte group sets one
// leaf of a default scenario (first byte, modulo the leaf count) to a value
// from a small table (second byte), so distinct inputs often build equal
// tuples — through defaults, repeated writes or the nil efficiency model —
// and the equal-key side of the property gets exercised. Tables are
// interned by content in tables, so the oracle's address rendering of a
// wrapped table agrees with value equality.
func fuzzTuple(data []byte, tables map[string]*efficiency.Table) (transformer.Model, hardware.System, Training, efficiency.Model) {
	s := fuzzScenario{
		Model: transformer.Megatron145B(), System: hardware.CaseStudy1System(),
		Saturating: efficiency.Default(), Fixed: 0.5, Occupancy: 0.8,
		Roofline: efficiency.Roofline{PeakMACs: 1e14, MemBW: 2e12, Hidden: 4096, SeqLen: 2048},
		TableUB:  [3]float64{1, 16, 128}, TableEff: [3]float64{0.25, 0.5, 0.9},
	}
	root := reflect.ValueOf(&s).Elem()
	var leaves []reflect.Value
	forEachLeaf(root, "", map[string]bool{}, func(_ string, leaf reflect.Value) { leaves = append(leaves, leaf) })
	for ; len(data) >= 2; data = data[2:] {
		leaf, pick := leaves[int(data[0])%len(leaves)], int(data[1])
		switch leaf.Kind() {
		case reflect.Bool:
			leaf.SetBool(pick&1 == 1)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			leaf.SetInt(fuzzInts[pick%len(fuzzInts)])
		case reflect.Float32, reflect.Float64:
			leaf.SetFloat(fuzzFloats[pick%len(fuzzFloats)])
		case reflect.String:
			leaf.SetString(fuzzNames[pick%len(fuzzNames)])
		}
	}

	m := s.Model
	if s.Variant != (transformer.Variant{}) {
		if mv, err := s.Variant.Apply(m); err == nil {
			m = mv
		}
	}
	tr := s.Training
	if s.HasSpec {
		tr.Reliability = &s.Spec
	}
	var eff efficiency.Model
	switch s.EffKind {
	case 1:
		eff = s.Saturating
	case 2:
		eff = efficiency.Fixed(s.Fixed)
	case 3:
		var pts []efficiency.Point
		for i := range s.TableUB {
			pts = append(pts, efficiency.Point{UB: s.TableUB[i], Eff: s.TableEff[i]})
		}
		if tbl, err := efficiency.NewTable(pts); err == nil {
			content := fmt.Sprintf("%#v", *tbl)
			if tables[content] == nil {
				tables[content] = tbl
			}
			eff = tables[content]
		}
	case 4:
		eff = s.Roofline
	}
	if s.Wrap {
		eff = efficiency.ContinuousBatching{Base: eff, Occupancy: s.Occupancy}
	}
	return m, s.System, tr, eff
}

// FuzzScenarioKey checks the binary key against the %#v oracle: over two
// fuzzed tuples with finite floats, the keys are equal exactly when the
// oracle's are.
func FuzzScenarioKey(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, []byte{0, 1})
	f.Add([]byte{40, 0}, []byte{40, 4})
	f.Add([]byte{90, 1, 91, 3}, []byte{90, 1, 91, 3, 92, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		tables := map[string]*efficiency.Table{}
		ma, sa, ta, ea := fuzzTuple(a, tables)
		mb, sb, tb, eb := fuzzTuple(b, tables)
		keyEq := ScenarioKey(&ma, &sa, ta, ea) == ScenarioKey(&mb, &sb, tb, eb)
		oracleEq := fmtScenarioKey(&ma, &sa, ta, ea) == fmtScenarioKey(&mb, &sb, tb, eb)
		if keyEq != oracleEq {
			t.Fatalf("binary keys equal = %v, %%#v oracle keys equal = %v\n a: %#v %#v %#v %#v\n b: %#v %#v %#v %#v",
				keyEq, oracleEq, ma, sa, ta, ea, mb, sb, tb, eb)
		}
	})
}

// BenchmarkScenarioKey times one key over a preset scenario with a
// reliability section: the cost every cached serving request pays once.
func BenchmarkScenarioKey(b *testing.B) {
	m := transformer.Megatron145B()
	sys := hardware.CaseStudy1System()
	tr := Training{NumBatches: 100, Reliability: &faults.Spec{AccelMTBF: 5e6, CheckpointBW: 2e9}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScenarioKey(&m, &sys, tr, nil)
	}
}
