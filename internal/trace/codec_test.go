package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ompt"
)

// codecSeedEvents holds one event of every kind, with every field set.
func codecSeedEvents() []Event {
	loc := ompt.SourceLoc{File: "stencil.c", Line: 42, Func: "sweep"}
	return []Event{
		{Kind: KindDeviceInit, Seq: 0, DeviceInit: &deviceInitRecord{Device: 1, Name: "gpu0", Unified: true}},
		{Kind: KindTargetBegin, Seq: 1, TargetBegin: &ompt.TargetEvent{Kind: ompt.KindTargetData, Device: 1, Task: 2, Target: 3, Async: true, Loc: loc}},
		{Kind: KindTargetEnd, Seq: 2, TargetEnd: &ompt.TargetEvent{Kind: ompt.KindTarget, Device: -1, Task: 2, Loc: loc}},
		{Kind: KindDataOp, Seq: 3, DataOp: &ompt.DataOpEvent{Kind: ompt.OpTransferToDevice, Device: 1, Task: 2, Tag: "a", HostAddr: 4096, DevAddr: 1 << 40, Bytes: 64, Implicit: true, Loc: loc, Clock: 9}},
		{Kind: KindAccess, Seq: 4, Access: &ompt.AccessEvent{Addr: 1<<64 - 1, Size: 8, Write: true, Device: ompt.HostDevice, Task: 7, Thread: 1<<32 - 1, Base: 4096, Tag: "a", Loc: loc, Clock: 5}},
		{Kind: KindSync, Seq: 5, Sync: &ompt.SyncEvent{Kind: ompt.SyncDependence, Task: 1, Child: 2, Thread: 3, Loc: loc}},
		{Kind: KindAlloc, Seq: 6, Alloc: &ompt.AllocEvent{Free: true, Addr: 8192, Bytes: 128, Tag: "b", Task: 1, Loc: loc}},
	}
}

// codecEdgeCases are inputs where a hand-written JSON decoder most easily
// drifts from encoding/json.
var codecEdgeCases = []string{
	// Keys match case-insensitively, including by Unicode simple folding
	// (U+212A KELVIN SIGN folds to k, U+017F LONG S to s) and via escapes.
	`{"KIND":"access","Seq":3,"ACCESS":{"addr":1,"SIZE":8,"wRiTe":true,"loc":{"file":"f","LINE":2}}}`,
	"{\"Kind\":\"sync\",\"ſeq\":1,\"sync\":{}}",
	`{"\u212aind":"sync","\u017feq":1,"\u0073ync":{}}`,
	`{"kind":"sync","sEq":2,"sync":{"Kind":3}}`,
	`{"kind ":"sync","sync":{}}`,
	// Duplicate keys: the last wins, and payload objects merge.
	`{"kind":"access","access":{"Addr":1,"Tag":"a"},"access":{"Size":2},"seq":1,"seq":2}`,
	`{"kind":"bogus","kind":"sync","sync":{"Loc":{"File":"a"}},"sync":{"Loc":{"Line":3}}}`,
	// null leaves fields as they are and clears payload pointers.
	`{"kind":"access","seq":null,"access":{"Addr":null,"Write":null,"Tag":null,"Loc":null}}`,
	`{"kind":"access","access":{"Addr":1},"access":null}`,
	`{"kind":"sync","access":null,"sync":{},"kind":null}`,
	`null`,
	// Unknown fields, nested, are syntax-checked and skipped.
	`{"kind":"sync","extra":{"a":[1,2.5e-3,{"b":null}],"c":"é","d":[],"e":{}},"sync":{"Clock":5,"Loc":{"Col":[true,false]}}}`,
	`{"kind":"sync","sync":{},"x":[1,]}`,
	`{"kind":"sync","sync":{},"x":{"a" 1}}`,
	`{"kind":"sync","sync":{},"x":-}`,
	`{"kind":"sync","sync":{},"x":1.}`,
	`{"kind":"sync","sync":{},"x":1e}`,
	// Escapes, line separators, HTML-sensitive bytes and invalid UTF-8.
	`{"kind":"access","access":{"Tag":"a\"b\\c\/d\n\t\r\b\fAé"}}`,
	`{"kind":"access","access":{"Tag":"\u2028\u2029  "}}`,
	"{\"kind\":\"access\",\"access\":{\"Tag\":\" <a&b>\"}}",
	"{\"kind\":\"access\",\"access\":{\"Tag\":\"\xff\xfe\",\"Loc\":{\"File\":\"\xc3\"}}}",
	`{"kind":"access","access":{"Tag":"𐀀\ud800"}}`,
	`{"kind":"access","access":{"Tag":"\x"}}`,
	`{"kind":"access","access":{"Tag":"\u12G4"}}`,
	"{\"kind\":\"access\",\"access\":{\"Tag\":\"a\x01\"}}",
	"{\"kind\":\"acc\xffess\",\"access\":{}}",
	// Integer ranges and number forms.
	`{"kind":"access","access":{"Thread":4294967295,"Device":-9223372036854775808,"Loc":{"Line":9223372036854775807}},"seq":18446744073709551615}`,
	`{"kind":"access","access":{"Thread":4294967296}}`,
	`{"kind":"sync","sync":{"Kind":256}}`,
	`{"kind":"sync","sync":{"Kind":255}}`,
	`{"kind":"access","access":{"Device":9223372036854775808}}`,
	`{"kind":"access","access":{"Device":-9223372036854775809}}`,
	`{"kind":"access","seq":18446744073709551616,"access":{}}`,
	`{"kind":"access","access":{"Addr":1e2}}`,
	`{"kind":"access","access":{"Addr":1.0}}`,
	`{"kind":"access","access":{"Addr":-1}}`,
	`{"kind":"access","access":{"Addr":-0}}`,
	`{"kind":"access","access":{"Device":-0,"Loc":{"Line":-0}}}`,
	`{"kind":"access","access":{"Addr":01}}`,
	`{"kind":"access","access":{"Addr":"1"}}`,
	`{"kind":"access","access":{"Write":1}}`,
	`{"kind":"access","access":{"Loc":"here"}}`,
	`{"kind":"access","access":[]}`,
	`{"kind":5,"access":{}}`,
	// Framing of the top-level value.
	`{"kind":"sync","sync":{}}x`,
	`{"kind":"sync","sync":{}}}`,
	" \t\r\n{\"kind\":\"sync\",\"sync\":{}} \n",
	`{"kind":"sync","sync":{}`,
	`[]`,
	`"sync"`,
	``,
	`{`,
	`{"kind":"sync","sync":{}}{}`,
	`{"kind":"sync","sync":{},}`,
	`{,"kind":"sync","sync":{}}`,
	`{"kind":"sync" "sync":{}}`,
	`{"kind":"sync","sync":{}} null`,
	`{"kind":"sync","sync":tru}`,
	`{"kind":"sync","sync":{},"u":nul}`,
}

// FuzzEventCodec checks the codec differentially against encoding/json: on
// arbitrary bytes, decodeEvent accepts exactly when json.Unmarshal plus
// validate does and then yields a deeply equal Event, and appendEvent
// re-encodes every accepted event byte for byte as json.Marshal does.
func FuzzEventCodec(f *testing.F) {
	for _, e := range codecSeedEvents() {
		b, err := json.Marshal(&e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range codecEdgeCases {
		f.Add([]byte(s))
	}
	in := newInterner() // shared, as within one decode stream
	f.Fuzz(func(t *testing.T, data []byte) { checkCodec(t, in, data) })
}

// checkCodec runs the differential check of FuzzEventCodec on one input.
func checkCodec(t *testing.T, in *interner, data []byte) {
	t.Helper()
	var want Event
	wantErr := json.Unmarshal(data, &want)
	if wantErr == nil {
		wantErr = want.validate()
	}
	var got Event
	gotErr := decodeEvent(data, &got, in)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: codec error %v, encoding/json error %v", data, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q: codec decoded %s, encoding/json %s", data, dump(got), dump(want))
	}
	wantBytes, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if gotBytes := appendEvent(nil, &got); !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("input %q: codec encoded\n%s\nencoding/json\n%s", data, gotBytes, wantBytes)
	}
}

// TestEventCodecNestingLimit checks values nested at and just past
// encoding/json's 10000-level limit, in an unknown field at top level and
// inside a payload's Loc. (Too large to be useful as fuzz seeds.)
func TestEventCodecNestingLimit(t *testing.T) {
	for _, n := range []int{9999, 10000} {
		checkCodec(t, nil, []byte(`{"kind":"sync","sync":{},"x":`+strings.Repeat("[", n)+strings.Repeat("]", n)+`}`))
	}
	for _, n := range []int{9997, 9998} {
		checkCodec(t, nil, []byte(`{"kind":"sync","sync":{"Loc":{"x":`+strings.Repeat(`{"a":`, n)+`1`+strings.Repeat("}", n)+`}}}`))
	}
}

// dump renders an event with its payloads for a failure message.
func dump(e Event) string {
	b, _ := json.Marshal(&e)
	return string(b)
}

// TestEventCodecEncodesLikeEncodingJSON covers encoder inputs the decoder
// never produces from a seed: strings needing every kind of escape, and
// extreme integers, on every kind.
func TestEventCodecEncodesLikeEncodingJSON(t *testing.T) {
	strs := []string{"", "plain", "q\"b\\s", "<a&b>", "  ", "\xff", "é", "\x00\x1f\x7f", "\b\f\n\r\t"}
	for _, e := range codecSeedEvents() {
		for _, s := range strs {
			e := e
			switch {
			case e.DeviceInit != nil:
				r := *e.DeviceInit
				r.Name, r.Device = s, -1<<63
				e.DeviceInit = &r
			case e.DataOp != nil:
				o := *e.DataOp
				o.Tag, o.Loc.File, o.Loc.Line = s, s, -1<<63
				e.DataOp = &o
			case e.Access != nil:
				a := *e.Access
				a.Tag, a.Loc.Func = s, s
				e.Access = &a
			case e.Alloc != nil:
				a := *e.Alloc
				a.Tag, a.Loc.Func = s, s
				e.Alloc = &a
			}
			e.Kind = EventKind(string(e.Kind) + s)
			want, err := json.Marshal(&e)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendEvent(nil, &e); !bytes.Equal(got, want) {
				t.Errorf("codec encoded\n%s\nencoding/json\n%s", got, want)
			}
		}
	}
	multi := codecSeedEvents()[4]
	multi.Sync = codecSeedEvents()[5].Sync
	multi.DeviceInit = codecSeedEvents()[0].DeviceInit
	want, _ := json.Marshal(&multi)
	if got := appendEvent(nil, &multi); !bytes.Equal(got, want) {
		t.Errorf("several payloads: codec encoded\n%s\nencoding/json\n%s", got, want)
	}
}

// TestInternerBounded checks the interner shares repeated strings but stops
// growing at its bounds.
func TestInternerBounded(t *testing.T) {
	in := newInterner()
	a := in.bytes([]byte("tag"))
	if b := in.bytes([]byte("tag")); unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("repeated string not shared")
	}
	for i := 0; i < 2*internMaxEntries; i++ {
		in.bytes([]byte(strings.Repeat("x", i%internMaxLen+1) + string(rune('a'+i%26)) + strings.Repeat("y", i/internMaxLen)))
	}
	if len(in.m) > internMaxEntries {
		t.Errorf("interner grew to %d entries, bound %d", len(in.m), internMaxEntries)
	}
	long := strings.Repeat("z", internMaxLen+1)
	in.bytes([]byte(long))
	if _, ok := in.m[long]; ok {
		t.Error("over-long string interned")
	}
}
