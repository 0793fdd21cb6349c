package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"

	"amped/internal/efficiency"
	"amped/internal/hardware"
	"amped/internal/parallel"
	"amped/internal/transformer"
)

// ScenarioKey derives a canonical cache key for a compiled-session scenario:
// two (model, system, training, efficiency) tuples hash equal exactly when
// Compile would produce interchangeable Sessions. The serving layer keys its
// session LRU on it so repeated scenarios skip Compile.
//
// Canonicalization rules:
//   - the training recipe is hashed with defaults applied, so an explicit
//     BubbleRatio of 1 and the zero-value default collide as they should;
//   - the batch schedule is zeroed out first — Compile ignores it (batch and
//     microbatches are per-point inputs), and leaving it in would shatter
//     the cache across requests that differ only in batch size;
//   - the reliability spec is hashed by value, and only when it is enabled
//     (nil and the all-zero spec collide deliberately: both disable the
//     failure model);
//   - a nil efficiency model hashes as efficiency.Default(), mirroring
//     Compile; other models hash by dynamic type and value, and so do the
//     models they wrap.
//
// The tuple is appended to one buffer in a canonical binary encoding (see
// appendValue) that walks every field, unexported ones included, and is
// hashed once with SHA-256. The key is stable across processes for a given
// build of this package: it hashes field values, never memory addresses.
func ScenarioKey(m *transformer.Model, sys *hardware.System, tr Training, eff efficiency.Model) string {
	var buf [keyBufSize]byte
	return hashKey(appendScenario(buf[:0], m, sys, tr, eff))
}

// Key returns the session's canonical scenario key (see ScenarioKey).
func (s *Session) Key() string {
	return ScenarioKey(s.model, s.sys, s.tr, s.eff)
}

// InferenceScenarioKey derives the canonical cache key for a compiled
// inference scenario: the training ScenarioKey's encoding of the underlying
// tuple extended with a domain tag and the serving workload shape, hashed
// once, so inference sessions never collide with training sessions (or with
// each other across different prompt/generation lengths) in the serving
// layer's cache.
func InferenceScenarioKey(m *transformer.Model, sys *hardware.System, tr Training, eff efficiency.Model, inf Inference) string {
	var buf [keyBufSize]byte
	b := appendScenario(buf[:0], m, sys, tr, eff)
	b = append(b, inferenceTag...)
	b = binary.LittleEndian.AppendUint64(b, uint64(inf.PromptLen))
	b = binary.LittleEndian.AppendUint64(b, uint64(inf.GenTokens))
	return hashKey(b)
}

const (
	// keyBufSize holds a preset scenario's encoding (about 610 bytes)
	// without growing.
	keyBufSize = 768
	// keyMaxDepth bounds the value walk, so a self-referential efficiency
	// model panics instead of recursing without end.
	keyMaxDepth = 32

	scenarioTag  = "amped.scenario.v1\x00"
	inferenceTag = "amped.inference\x00"
)

// appendScenario appends the canonical encoding of a training scenario.
func appendScenario(b []byte, m *transformer.Model, sys *hardware.System, tr Training, eff efficiency.Model) []byte {
	tr = tr.withDefaults()
	tr.Batch = parallel.Batch{}
	if !tr.Reliability.Enabled() {
		tr.Reliability = nil
	}
	if eff == nil {
		eff = efficiency.Default()
	}
	b = append(b, scenarioTag...)
	b = appendValue(b, reflect.ValueOf(m).Elem(), 0)
	b = appendValue(b, reflect.ValueOf(sys).Elem(), 0)
	b = appendValue(b, reflect.ValueOf(&tr).Elem(), 0)
	return appendDynamic(b, reflect.ValueOf(eff), 0)
}

func hashKey(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendValue appends the canonical encoding of v. Every value is either
// fixed-width for its static type or carries its own length or presence
// marker, so the concatenation of a tuple's fields is injective:
//   - bool as one byte, integers and floats as 8 little-endian bytes (floats
//     by their IEEE-754 bits, so -0 and 0 differ);
//   - strings as a uvarint length and the bytes;
//   - structs and arrays as their fields or elements in order;
//   - slices and pointers as a nil marker, then the length and elements or
//     the pointee — pointers hash by value, never by address;
//   - interfaces as a nil marker, then the dynamic type and value.
//
// Any other kind panics. A map, func, chan or unsafe pointer has no
// canonical value: the key would depend on iteration order or an address.
func appendValue(b []byte, v reflect.Value, depth int) []byte {
	if depth > keyMaxDepth {
		panic(fmt.Sprintf("model: scenario key: %s nests deeper than %d levels", v.Type(), keyMaxDepth))
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return appendString(b, v.String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i), depth+1)
		}
		return b
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(append(b, 1), uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, v.Index(i), depth+1)
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendValue(append(b, 1), v.Elem(), depth+1)
	case reflect.Interface:
		return appendDynamic(b, v.Elem(), depth+1)
	}
	panic(fmt.Sprintf("model: scenario key cannot canonicalize %s (kind %s)", v.Type(), v.Kind()))
}

// appendDynamic appends an interface's content: a nil marker, then the
// dynamic type's identity and its value. The identity is the package path
// of the named type under any pointers, then the type's full name.
func appendDynamic(b []byte, v reflect.Value, depth int) []byte {
	if !v.IsValid() {
		return append(b, 0)
	}
	t := v.Type()
	named := t
	for named.Name() == "" && named.Kind() == reflect.Pointer {
		named = named.Elem()
	}
	b = appendString(append(b, 1), named.PkgPath())
	b = appendString(b, t.String())
	return appendValue(b, v, depth)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
