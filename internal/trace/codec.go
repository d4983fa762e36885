// Schema-specific event codec: the one encoder and decoder behind every
// trace path (Save, SaveFramed, AppendEventFrame, Stream's JSON-lines and
// framed decoders, and PushDecoder).
//
// The wire format is exactly what encoding/json reads and writes for Event,
// so existing spools, uploads and checkpoints stay byte-identical. What
// changes is the cost: encoding/json walks the types by reflection for every
// event, which dominated ingest (decode ran ~28× slower than cold replay).
// This codec knows the seven payload shapes and scans them directly.
//
// It mirrors encoding/json's observable behavior for Event, not just the
// happy path, so it accepts and rejects exactly the same inputs and yields
// the same values:
//
//   - keys match case-insensitively (exact match, else Unicode simple
//     folding, as bytes.EqualFold);
//   - a duplicate key overwrites, and a repeated payload object decodes into
//     the pointer the earlier one allocated;
//   - null leaves a value field as is and sets a payload pointer to nil;
//   - unknown keys have their values syntax-checked and skipped, within the
//     same 10000-level nesting limit;
//   - integers are range-checked against their Go types, and fractions,
//     exponents, or a sign on an unsigned field are rejected.
//
// The only cases handed to encoding/json are single string tokens: a string
// holding an escape or a non-ASCII byte is unquoted by json.Unmarshal, and a
// string needing escaping is quoted by json.Marshal. That keeps escape,
// HTML-escape and invalid-UTF-8 handling exactly encoding/json's.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ompt"
)

// maxNestingDepth is encoding/json's scanner limit on nested objects and
// arrays; deeper input is a syntax error there, so it is one here too.
const maxNestingDepth = 10000

// Bounds of an interner: at most internMaxEntries strings, each at most
// internMaxLen bytes, so a hostile stream cannot grow the table without
// limit. Strings past either bound are simply allocated.
const (
	internMaxEntries = 1024
	internMaxLen     = 128
)

// interner deduplicates the repetitive strings of one decode stream
// (variable tags, source files and functions), so a large trace does not
// allocate them afresh for every event. A nil interner interns nothing.
type interner struct {
	m map[string]string
}

func newInterner() *interner {
	return &interner{m: make(map[string]string)}
}

func (in *interner) bytes(b []byte) string {
	if in != nil {
		if s, ok := in.m[string(b)]; ok { // no allocation for the lookup
			return s
		}
	}
	return in.string(string(b))
}

func (in *interner) string(s string) string {
	if in == nil || len(s) > internMaxLen {
		return s
	}
	if t, ok := in.m[s]; ok {
		return t
	}
	if len(in.m) < internMaxEntries {
		in.m[s] = s
	}
	return s
}

// decodeError reports input encoding/json would refuse to decode into an
// Event: a syntax error, or a value of the wrong type or range for its
// field. Errors from validate are returned as they are, so callers can tell
// malformed JSON from a well-formed but invalid event.
type decodeError struct {
	Offset int
	Msg    string
	Err    error // the encoding/json error, for a string token it refused
}

func (e *decodeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("%s at byte %d: %v", e.Msg, e.Offset, e.Err)
	}
	return fmt.Sprintf("%s at byte %d", e.Msg, e.Offset)
}

func (e *decodeError) Unwrap() error { return e.Err }

// decodeEvent decodes one JSON-encoded event from payload into e, which the
// caller passes zeroed, then validates it. in may be nil.
func decodeEvent(payload []byte, e *Event, in *interner) error {
	d := decoder{buf: payload, in: in}
	if err := d.event(e); err != nil {
		return err
	}
	return e.validate()
}

// decoder is a cursor over one payload.
type decoder struct {
	buf []byte
	pos int
	in  *interner
}

// The field names of each struct, in declaration order; the index of a
// name is the field number the per-struct field functions switch on.
var (
	eventNames      = []string{"kind", "seq", "deviceInit", "targetBegin", "targetEnd", "dataOp", "access", "sync", "alloc"}
	deviceInitNames = []string{"device", "name", "unified"}
	targetNames     = []string{"Kind", "Device", "Task", "Target", "Async", "Loc"}
	dataOpNames     = []string{"Kind", "Device", "Task", "Tag", "HostAddr", "DevAddr", "Bytes", "Implicit", "Loc"}
	accessNames     = []string{"Addr", "Size", "Write", "Device", "Task", "Thread", "Base", "Tag", "Loc"}
	syncNames       = []string{"Kind", "Task", "Child", "Thread", "Loc"}
	allocNames      = []string{"Free", "Addr", "Bytes", "Tag", "Task", "Loc"}
	locNames        = []string{"File", "Line", "Func"}
)

// event decodes the top-level value.
func (d *decoder) event(e *Event) error {
	d.ws()
	switch d.peek() {
	case '{':
		if err := d.object(0, eventNames, func(f, depth int) error { return d.eventField(e, f, depth) }); err != nil {
			return err
		}
	case 'n':
		// Unmarshal of null into a struct is a no-op; validate rejects it.
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.mismatch("Event")
	}
	d.ws()
	if d.pos < len(d.buf) {
		return d.syntax("after top-level value")
	}
	return nil
}

// eventField decodes the value of Event field f. The payload field
// decoders are wrapped in closures rather than passed as method values: a
// method value would hand d to a function unknown at compile time, and d
// would escape to the heap once per event.
func (d *decoder) eventField(e *Event, f, depth int) error {
	switch f {
	case 0:
		kind := string(e.Kind)
		err := d.stringInto(&kind, true)
		e.Kind = EventKind(kind)
		return err
	case 1:
		return uintInto(d, &e.Seq, math.MaxUint64, "seq")
	case 2:
		return payload(d, &e.DeviceInit, depth, deviceInitNames, func(r *deviceInitRecord, f, _ int) error { return d.deviceInitField(r, f) })
	case 3:
		return payload(d, &e.TargetBegin, depth, targetNames, func(t *ompt.TargetEvent, f, depth int) error { return d.targetField(t, f, depth) })
	case 4:
		return payload(d, &e.TargetEnd, depth, targetNames, func(t *ompt.TargetEvent, f, depth int) error { return d.targetField(t, f, depth) })
	case 5:
		return payload(d, &e.DataOp, depth, dataOpNames, func(o *ompt.DataOpEvent, f, depth int) error { return d.dataOpField(o, f, depth) })
	case 6:
		return payload(d, &e.Access, depth, accessNames, func(a *ompt.AccessEvent, f, depth int) error { return d.accessField(a, f, depth) })
	case 7:
		return payload(d, &e.Sync, depth, syncNames, func(s *ompt.SyncEvent, f, depth int) error { return d.syncField(s, f, depth) })
	case 8:
		return payload(d, &e.Alloc, depth, allocNames, func(a *ompt.AllocEvent, f, depth int) error { return d.allocField(a, f, depth) })
	}
	return nil
}

// payload decodes one payload-pointer field: null sets it to nil, an object
// decodes into the existing value or a new one.
func payload[T any](d *decoder, p **T, depth int, names []string, field func(v *T, f, depth int) error) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*p = nil
		return nil
	case '{':
		if *p == nil {
			*p = new(T)
		}
		v := *p
		return d.object(depth, names, func(f, depth int) error { return field(v, f, depth) })
	}
	return d.mismatch(fmt.Sprintf("%T", *p))
}

func (d *decoder) deviceInitField(r *deviceInitRecord, f int) error {
	switch f {
	case 0:
		return intInto(d, &r.Device, "device")
	case 1:
		return d.stringInto(&r.Name, false)
	case 2:
		return d.boolInto(&r.Unified)
	}
	return nil
}

func (d *decoder) targetField(t *ompt.TargetEvent, f, depth int) error {
	switch f {
	case 0:
		return uintInto(d, &t.Kind, math.MaxUint8, "Kind")
	case 1:
		return intInto(d, &t.Device, "Device")
	case 2:
		return uintInto(d, &t.Task, math.MaxUint64, "Task")
	case 3:
		return uintInto(d, &t.Target, math.MaxUint64, "Target")
	case 4:
		return d.boolInto(&t.Async)
	case 5:
		return d.loc(&t.Loc, depth)
	}
	return nil
}

func (d *decoder) dataOpField(o *ompt.DataOpEvent, f, depth int) error {
	switch f {
	case 0:
		return uintInto(d, &o.Kind, math.MaxUint8, "Kind")
	case 1:
		return intInto(d, &o.Device, "Device")
	case 2:
		return uintInto(d, &o.Task, math.MaxUint64, "Task")
	case 3:
		return d.stringInto(&o.Tag, true)
	case 4:
		return uintInto(d, &o.HostAddr, math.MaxUint64, "HostAddr")
	case 5:
		return uintInto(d, &o.DevAddr, math.MaxUint64, "DevAddr")
	case 6:
		return uintInto(d, &o.Bytes, math.MaxUint64, "Bytes")
	case 7:
		return d.boolInto(&o.Implicit)
	case 8:
		return d.loc(&o.Loc, depth)
	}
	return nil
}

func (d *decoder) accessField(a *ompt.AccessEvent, f, depth int) error {
	switch f {
	case 0:
		return uintInto(d, &a.Addr, math.MaxUint64, "Addr")
	case 1:
		return uintInto(d, &a.Size, math.MaxUint64, "Size")
	case 2:
		return d.boolInto(&a.Write)
	case 3:
		return intInto(d, &a.Device, "Device")
	case 4:
		return uintInto(d, &a.Task, math.MaxUint64, "Task")
	case 5:
		return uintInto(d, &a.Thread, math.MaxUint32, "Thread")
	case 6:
		return uintInto(d, &a.Base, math.MaxUint64, "Base")
	case 7:
		return d.stringInto(&a.Tag, true)
	case 8:
		return d.loc(&a.Loc, depth)
	}
	return nil
}

func (d *decoder) syncField(s *ompt.SyncEvent, f, depth int) error {
	switch f {
	case 0:
		return uintInto(d, &s.Kind, math.MaxUint8, "Kind")
	case 1:
		return uintInto(d, &s.Task, math.MaxUint64, "Task")
	case 2:
		return uintInto(d, &s.Child, math.MaxUint64, "Child")
	case 3:
		return uintInto(d, &s.Thread, math.MaxUint32, "Thread")
	case 4:
		return d.loc(&s.Loc, depth)
	}
	return nil
}

func (d *decoder) allocField(a *ompt.AllocEvent, f, depth int) error {
	switch f {
	case 0:
		return d.boolInto(&a.Free)
	case 1:
		return uintInto(d, &a.Addr, math.MaxUint64, "Addr")
	case 2:
		return uintInto(d, &a.Bytes, math.MaxUint64, "Bytes")
	case 3:
		return d.stringInto(&a.Tag, true)
	case 4:
		return uintInto(d, &a.Task, math.MaxUint64, "Task")
	case 5:
		return d.loc(&a.Loc, depth)
	}
	return nil
}

// loc decodes a SourceLoc field, a struct value: null leaves it as is.
func (d *decoder) loc(l *ompt.SourceLoc, depth int) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(depth, locNames, func(f, _ int) error {
			switch f {
			case 0:
				return d.stringInto(&l.File, true)
			case 1:
				return intInto(d, &l.Line, "Line")
			case 2:
				return d.stringInto(&l.Func, true)
			}
			return nil
		})
	}
	return d.mismatch("SourceLoc")
}

// object decodes the object at d.pos, calling field with the index into
// names of every member whose key matches one, and skipping the rest. depth
// is the nesting depth of the enclosing value (0 at top level); field
// receives this object's.
func (d *decoder) object(depth int, names []string, field func(f, depth int) error) error {
	depth++
	if depth > maxNestingDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++ // '{'
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	next := 0 // encoders write fields in declaration order: try that first
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		f, err := d.key(names, next)
		if err != nil {
			return err
		}
		next = f + 1
		if f < 0 {
			err = d.skipValue(depth)
		} else {
			err = field(f, depth)
		}
		if err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// key reads an object key, the colon after it and the whitespace before the
// value, and returns the index of the name it matches, or -1. names[hint],
// if it exists, is tried first.
func (d *decoder) key(names []string, hint int) (int, error) {
	if hint < len(names) {
		// Fast path: the key is exactly the hinted name, quoted, with the
		// colon right after it.
		n := names[hint]
		if end := d.pos + 1 + len(n); end+1 < len(d.buf) && d.buf[end] == '"' && d.buf[end+1] == ':' && string(d.buf[d.pos+1:end]) == n {
			d.pos = end + 2
			d.ws()
			return hint, nil
		}
	}
	raw, plain, err := d.stringToken()
	if err != nil {
		return -1, err
	}
	if err := d.colon(); err != nil {
		return -1, err
	}
	if plain {
		k := raw[1 : len(raw)-1]
		for i, n := range names {
			if len(n) == len(k) && asciiEqualFold(k, n) {
				return i, nil
			}
		}
		return -1, nil
	}
	s, err := d.unquote(raw)
	if err != nil {
		return -1, err
	}
	for i, n := range names {
		if strings.EqualFold(s, n) {
			return i, nil
		}
	}
	return -1, nil
}

// colon consumes the colon after an object key and the whitespace around
// it.
func (d *decoder) colon() error {
	d.ws()
	if d.peek() != ':' {
		return d.syntax("after object key")
	}
	d.pos++
	d.ws()
	return nil
}

// asciiEqualFold reports whether the ASCII key k equals name under
// encoding/json's ASCII case folding.
func asciiEqualFold(k []byte, name string) bool {
	for i := 0; i < len(k); i++ {
		a, b := k[i], name[i]
		if a == b {
			continue
		}
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// stringInto decodes a string field; null leaves it as is. intern selects
// the stream's interner for repetitive strings.
func (d *decoder) stringInto(dst *string, intern bool) error {
	switch d.peek() {
	case '"':
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("string")
	}
	raw, plain, err := d.stringToken()
	if err != nil {
		return err
	}
	in := d.in
	if !intern {
		in = nil
	}
	if plain {
		*dst = in.bytes(raw[1 : len(raw)-1])
		return nil
	}
	s, err := d.unquote(raw)
	if err != nil {
		return err
	}
	*dst = in.string(s)
	return nil
}

// unquote hands one string token with escapes or non-ASCII bytes to
// encoding/json, which owns the escape and invalid-UTF-8 rules.
func (d *decoder) unquote(raw []byte) (string, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", &decodeError{Offset: d.pos - len(raw), Msg: "invalid string", Err: err}
	}
	return s, nil
}

// stringToken scans the string token at d.pos (its opening quote) and
// returns it quotes included. plain is true when the token has no escape
// and no non-ASCII byte, so its content is the string's value.
func (d *decoder) stringToken() (raw []byte, plain bool, err error) {
	start := d.pos
	plain = true
	for p := start + 1; p < len(d.buf); {
		c := d.buf[p]
		if plainByte[c] {
			p++
			continue
		}
		switch {
		case c == '"':
			d.pos = p + 1
			return d.buf[start : p+1], plain, nil
		case c == '\\':
			plain = false
			p++
			if p >= len(d.buf) {
				break
			}
			switch d.buf[p] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p++
			case 'u':
				p++
				for i := 0; i < 4; i++ {
					if p >= len(d.buf) {
						break
					}
					if !isHex(d.buf[p]) {
						d.pos = p
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
					p++
				}
			default:
				d.pos = p
				return nil, false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.pos = p
			return nil, false, d.syntax("in string literal")
		default: // c >= 0x80
			plain = false
			p++
		}
	}
	d.pos = len(d.buf)
	return nil, false, d.syntax("in string literal")
}

// plainByte marks the bytes a string token carries verbatim: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// boolInto decodes a bool field; null leaves it as is.
func (d *decoder) boolInto(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool")
}

// uintInto decodes an unsigned integer field no larger than max; null
// leaves it as is. Like strconv.ParseUint, it refuses any sign, even -0.
func uintInto[T ~uint8 | ~uint32 | ~uint64](d *decoder, dst *T, max uint64, field string) error {
	start := d.pos
	neg, v, ok, err := d.integer(field)
	if !ok {
		return err
	}
	if neg || v > max {
		return d.rangeErr(start, field)
	}
	*dst = T(v)
	return nil
}

// intInto decodes a Go int field (DeviceID, Line); null leaves it as is.
func intInto[T ~int](d *decoder, dst *T, field string) error {
	start := d.pos
	neg, v, ok, err := d.integer(field)
	if !ok {
		return err
	}
	switch {
	case !neg && v <= math.MaxInt:
		*dst = T(v)
	case neg && v <= math.MaxInt+1:
		*dst = T(-int(v)) // wraps to math.MinInt for v = math.MaxInt+1
	default:
		return d.rangeErr(start, field)
	}
	return nil
}

// integer reads an integer value as its sign and magnitude. ok is false
// for null, which leaves the field as is, and on error. A fraction, an
// exponent or a magnitude past uint64 is a range error, as in
// encoding/json.
func (d *decoder) integer(field string) (neg bool, v uint64, ok bool, err error) {
	start := d.pos
	switch c := d.peek(); {
	case c == 'n':
		return false, 0, false, d.literal("null")
	case '1' <= c && c <= '9':
		// Fast path: up to 19 digits (below 10^19, so no overflow)
		// followed by a delimiter.
		p, end := d.pos, min(d.pos+19, len(d.buf))
		for ; p < end && isDigit(d.buf[p]); p++ {
			v = v*10 + uint64(d.buf[p]-'0')
		}
		if p == len(d.buf) || !isDigit(d.buf[p]) && d.buf[p] != '.' && d.buf[p] != 'e' && d.buf[p] != 'E' {
			d.pos = p
			return false, v, true, nil
		}
	case c != '-' && c != '0':
		return false, 0, false, d.mismatch(field)
	}
	neg, digits, integral, err := d.number()
	if err != nil {
		return false, 0, false, err
	}
	v, fits := parseDigits(digits)
	if !integral || !fits {
		return false, 0, false, d.rangeErr(start, field)
	}
	return neg, v, true, nil
}

// parseDigits converts a run of decimal digits, failing past uint64.
func parseDigits(digits []byte) (uint64, bool) {
	var v uint64
	for i, c := range digits {
		if i >= 19 && v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// number scans the JSON number at d.pos. digits is its integer part
// without the sign; integral is false when it has a fraction or exponent.
func (d *decoder) number() (neg bool, digits []byte, integral bool, err error) {
	p := d.pos
	if p < len(d.buf) && d.buf[p] == '-' {
		neg = true
		p++
	}
	start := p
	switch {
	case p >= len(d.buf):
		d.pos = p
		return false, nil, false, d.syntax("in numeric literal")
	case d.buf[p] == '0':
		p++
	case '1' <= d.buf[p] && d.buf[p] <= '9':
		p = skipDigits(d.buf, p+1)
	default:
		d.pos = p
		return false, nil, false, d.syntax("in numeric literal")
	}
	digits = d.buf[start:p]
	integral = true
	if p < len(d.buf) && d.buf[p] == '.' {
		integral = false
		p++
		if p >= len(d.buf) || !isDigit(d.buf[p]) {
			d.pos = p
			return false, nil, false, d.syntax("after decimal point in numeric literal")
		}
		p = skipDigits(d.buf, p)
	}
	if p < len(d.buf) && (d.buf[p] == 'e' || d.buf[p] == 'E') {
		integral = false
		p++
		if p < len(d.buf) && (d.buf[p] == '+' || d.buf[p] == '-') {
			p++
		}
		if p >= len(d.buf) || !isDigit(d.buf[p]) {
			d.pos = p
			return false, nil, false, d.syntax("in exponent of numeric literal")
		}
		p = skipDigits(d.buf, p)
	}
	d.pos = p
	return neg, digits, integral, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, p int) int {
	for p < len(b) && isDigit(b[p]) {
		p++
	}
	return p
}

// literal consumes the literal word (true, false or null) at d.pos.
func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.syntax("in literal " + word)
		}
		d.pos++
	}
	return nil
}

// skipValue syntax-checks and skips the value at d.pos, the value of an
// unknown key; depth is the nesting depth of its container.
func (d *decoder) skipValue(depth int) error {
	var open []byte // the containers entered by this value, innermost last
	for {
		// A value starts here.
		d.ws()
		closed := true // the value just scanned is complete
		switch c := d.peek(); {
		case c == '{' || c == '[':
			depth++
			if depth > maxNestingDepth {
				return d.syntax("exceeded max depth")
			}
			d.pos++
			d.ws()
			if end := c + 2; d.peek() == end { // '}' or ']'
				d.pos++
				depth--
				break
			}
			open = append(open, c)
			closed = false
			if c == '{' {
				if err := d.skipKey(); err != nil {
					return err
				}
			}
		case c == '"':
			if _, _, err := d.stringToken(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, _, _, err := d.number(); err != nil {
				return err
			}
		default:
			return d.syntax("looking for beginning of value")
		}
		// Close every container the value completes, then either return or
		// move on to the next element.
		for closed {
			if len(open) == 0 {
				return nil
			}
			d.ws()
			top := open[len(open)-1]
			switch c := d.peek(); {
			case c == ',':
				d.pos++
				closed = false
				if top == '{' {
					d.ws()
					if err := d.skipKey(); err != nil {
						return err
					}
				}
			case c == top+2:
				d.pos++
				open = open[:len(open)-1]
				depth--
			default:
				return d.syntax("after array element or object member")
			}
		}
	}
}

// skipKey scans an object key and its colon.
func (d *decoder) skipKey() error {
	if d.peek() != '"' {
		return d.syntax("looking for beginning of object key string")
	}
	if _, _, err := d.stringToken(); err != nil {
		return err
	}
	return d.colon()
}

// ws skips JSON whitespace. Encoders write none, so the common case is an
// inlined single comparison.
func (d *decoder) ws() {
	if d.pos < len(d.buf) && d.buf[d.pos] > ' ' {
		return
	}
	d.skipWS()
}

func (d *decoder) skipWS() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of input (NUL is never
// valid where a token may start, so it needs no separate case).
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.buf) {
		return &decodeError{Offset: d.pos, Msg: "unexpected end of JSON input"}
	}
	return &decodeError{Offset: d.pos, Msg: fmt.Sprintf("invalid character %q %s", d.buf[d.pos], context)}
}

// mismatch reports a value whose JSON type does not fit the field.
func (d *decoder) mismatch(field string) error {
	what := "value"
	switch c := d.peek(); {
	case c == '{':
		what = "object"
	case c == '[':
		what = "array"
	case c == '"':
		what = "string"
	case c == 't' || c == 'f':
		what = "bool"
	case c == '-' || isDigit(c):
		what = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return &decodeError{Offset: d.pos, Msg: fmt.Sprintf("cannot decode %s into %s", what, field)}
}

// rangeErr reports a number that does not fit its integer field.
func (d *decoder) rangeErr(start int, field string) error {
	return &decodeError{Offset: start, Msg: fmt.Sprintf("number %s does not fit %s", d.buf[start:d.pos], field)}
}

// appendEvent appends e's JSON encoding to dst: byte for byte what
// json.Marshal(e) writes.
func appendEvent(dst []byte, e *Event) []byte {
	dst = append(dst, `{"kind":`...)
	dst = appendString(dst, string(e.Kind))
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	if r := e.DeviceInit; r != nil {
		dst = append(dst, `,"deviceInit":{"device":`...)
		dst = strconv.AppendInt(dst, int64(r.Device), 10)
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, r.Name)
		dst = append(dst, `,"unified":`...)
		dst = strconv.AppendBool(dst, r.Unified)
		dst = append(dst, '}')
	}
	if t := e.TargetBegin; t != nil {
		dst = appendTarget(append(dst, `,"targetBegin":`...), t)
	}
	if t := e.TargetEnd; t != nil {
		dst = appendTarget(append(dst, `,"targetEnd":`...), t)
	}
	if o := e.DataOp; o != nil {
		dst = append(dst, `,"dataOp":{"Kind":`...)
		dst = strconv.AppendUint(dst, uint64(o.Kind), 10)
		dst = append(dst, `,"Device":`...)
		dst = strconv.AppendInt(dst, int64(o.Device), 10)
		dst = append(dst, `,"Task":`...)
		dst = strconv.AppendUint(dst, uint64(o.Task), 10)
		dst = append(dst, `,"Tag":`...)
		dst = appendString(dst, o.Tag)
		dst = append(dst, `,"HostAddr":`...)
		dst = strconv.AppendUint(dst, uint64(o.HostAddr), 10)
		dst = append(dst, `,"DevAddr":`...)
		dst = strconv.AppendUint(dst, uint64(o.DevAddr), 10)
		dst = append(dst, `,"Bytes":`...)
		dst = strconv.AppendUint(dst, o.Bytes, 10)
		dst = append(dst, `,"Implicit":`...)
		dst = strconv.AppendBool(dst, o.Implicit)
		dst = appendLoc(dst, &o.Loc)
		dst = append(dst, '}')
	}
	if a := e.Access; a != nil {
		dst = append(dst, `,"access":{"Addr":`...)
		dst = strconv.AppendUint(dst, uint64(a.Addr), 10)
		dst = append(dst, `,"Size":`...)
		dst = strconv.AppendUint(dst, a.Size, 10)
		dst = append(dst, `,"Write":`...)
		dst = strconv.AppendBool(dst, a.Write)
		dst = append(dst, `,"Device":`...)
		dst = strconv.AppendInt(dst, int64(a.Device), 10)
		dst = append(dst, `,"Task":`...)
		dst = strconv.AppendUint(dst, uint64(a.Task), 10)
		dst = append(dst, `,"Thread":`...)
		dst = strconv.AppendUint(dst, uint64(a.Thread), 10)
		dst = append(dst, `,"Base":`...)
		dst = strconv.AppendUint(dst, uint64(a.Base), 10)
		dst = append(dst, `,"Tag":`...)
		dst = appendString(dst, a.Tag)
		dst = appendLoc(dst, &a.Loc)
		dst = append(dst, '}')
	}
	if s := e.Sync; s != nil {
		dst = append(dst, `,"sync":{"Kind":`...)
		dst = strconv.AppendUint(dst, uint64(s.Kind), 10)
		dst = append(dst, `,"Task":`...)
		dst = strconv.AppendUint(dst, uint64(s.Task), 10)
		dst = append(dst, `,"Child":`...)
		dst = strconv.AppendUint(dst, uint64(s.Child), 10)
		dst = append(dst, `,"Thread":`...)
		dst = strconv.AppendUint(dst, uint64(s.Thread), 10)
		dst = appendLoc(dst, &s.Loc)
		dst = append(dst, '}')
	}
	if a := e.Alloc; a != nil {
		dst = append(dst, `,"alloc":{"Free":`...)
		dst = strconv.AppendBool(dst, a.Free)
		dst = append(dst, `,"Addr":`...)
		dst = strconv.AppendUint(dst, uint64(a.Addr), 10)
		dst = append(dst, `,"Bytes":`...)
		dst = strconv.AppendUint(dst, a.Bytes, 10)
		dst = append(dst, `,"Tag":`...)
		dst = appendString(dst, a.Tag)
		dst = append(dst, `,"Task":`...)
		dst = strconv.AppendUint(dst, uint64(a.Task), 10)
		dst = appendLoc(dst, &a.Loc)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

func appendTarget(dst []byte, t *ompt.TargetEvent) []byte {
	dst = append(dst, `{"Kind":`...)
	dst = strconv.AppendUint(dst, uint64(t.Kind), 10)
	dst = append(dst, `,"Device":`...)
	dst = strconv.AppendInt(dst, int64(t.Device), 10)
	dst = append(dst, `,"Task":`...)
	dst = strconv.AppendUint(dst, uint64(t.Task), 10)
	dst = append(dst, `,"Target":`...)
	dst = strconv.AppendUint(dst, uint64(t.Target), 10)
	dst = append(dst, `,"Async":`...)
	dst = strconv.AppendBool(dst, t.Async)
	dst = appendLoc(dst, &t.Loc)
	return append(dst, '}')
}

// appendLoc appends the `,"Loc":{...}` member that closes every payload.
func appendLoc(dst []byte, l *ompt.SourceLoc) []byte {
	dst = append(dst, `,"Loc":{"File":`...)
	dst = appendString(dst, l.File)
	dst = append(dst, `,"Line":`...)
	dst = strconv.AppendInt(dst, int64(l.Line), 10)
	dst = append(dst, `,"Func":`...)
	dst = appendString(dst, l.Func)
	return append(dst, '}')
}

// appendString appends s as a JSON string. Strings that need any escaping
// (control bytes, quote, backslash, the HTML-sensitive <>&, or any
// non-ASCII byte) are quoted by encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !verbatimByte[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// verbatimByte marks the bytes json.Marshal copies into a string as they
// are: plainByte minus the HTML-sensitive <, > and &.
var verbatimByte = func() (t [256]bool) {
	t = plainByte
	t['<'], t['>'], t['&'] = false, false, false
	return t
}()
