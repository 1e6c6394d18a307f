// Allocation-lean text codec: the byte-level record parser and renderer
// behind Reader and Writer. ParseRecordBytes is the canonical grammar for a
// trace line (ParseRecord delegates to it); an Interner adds a per-stream
// name table and path slab so that steady-state decoding allocates only
// slab chunks, far fewer than one per record, even when no access path
// ever repeats.
package trace

import (
	"fmt"
	"strconv"

	"tracedst/internal/ctype"
)

// ParseRecordBytes parses one trace line held as bytes. It accepts exactly
// the grammar ParseRecord documents and allocates only the record's own
// strings (Func, Var); use an Interner to amortize those across a stream.
func ParseRecordBytes(line []byte) (Record, error) {
	var r Record
	err := parseRecordInto(&r, line, nil)
	return r, err
}

// AppendText appends the record, formatted exactly as Gleipnir writes it
// (and exactly as String returns it), to dst and returns the extended
// slice. It performs no allocations beyond growing dst.
func (r *Record) AppendText(dst []byte) []byte {
	dst = append(dst, byte(r.Op), ' ')
	dst = appendHex9(dst, r.Addr)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, r.Size, 10)
	dst = append(dst, ' ')
	dst = append(dst, r.Func...)
	if !r.HasSym {
		return dst
	}
	sc := byte('V')
	if r.Aggregate {
		sc = 'S'
	}
	dst = append(dst, ' ', byte(r.Vis), sc)
	if r.Vis == Local {
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(r.Frame), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(r.Thread), 10)
	}
	dst = append(dst, ' ')
	return r.Var.AppendText(dst)
}

// appendHex9 appends addr as lowercase hex, zero-padded to at least 9
// digits (the Gleipnir fixed-width address column).
func appendHex9(dst []byte, addr uint64) []byte {
	var tmp [16]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = "0123456789abcdef"[addr&0xf]
		addr >>= 4
		if addr == 0 {
			break
		}
	}
	for len(tmp)-i < 9 {
		i--
		tmp[i] = '0'
	}
	return append(dst, tmp[i:]...)
}

// maxInternedNames caps the name table so a pathological trace with an
// unbounded name population degrades to plain allocation instead of
// holding every distinct string alive.
const maxInternedNames = 1 << 20

// Path slab chunk sizes, in elements: the first chunk is small so short
// traces stay light, later ones double up to the cap.
const (
	minPathChunk = 64
	maxPathChunk = 4096
)

// Interner resolves the strings and access paths a trace decoder produces
// without a per-spelling cache. Names — function names, variable roots and
// field names — come from a bounded name table keyed by their bytes, so a
// name seen before costs a lookup and no allocation. Access paths are
// parsed from the spelling's bytes on every use and stored in a chunked
// path slab: each path is a 3-index slice of the current chunk, so the
// slab's allocations amortize to nothing per record however many distinct
// subscripts a trace carries (paper traces rarely repeat one).
//
// Paths handed out share chunks with neighbouring records' paths and,
// within one .glb block, with every record naming the same string-table
// entry. Records from an Interner must therefore be treated as read-only
// (which every consumer in this repository already does — transformations
// build fresh paths); appending to a Var.Path copies, because its capacity
// ends at its length. An Interner is not safe for concurrent use; give
// each decoding goroutine its own.
type Interner struct {
	names map[string]string
	slab  []ctype.PathElem // unused tail of the current path chunk
	chunk int              // size of the last chunk allocated
}

// NewInterner returns an empty name table and path slab.
func NewInterner() *Interner {
	return &Interner{names: make(map[string]string)}
}

// ParseRecord parses one trace line, resolving Func and Var through the
// table and the slab. The line bytes are not retained.
func (in *Interner) ParseRecord(line []byte) (Record, error) {
	var r Record
	err := parseRecordInto(&r, line, in)
	return r, err
}

// name returns the table's string for b, adding it on first sight. The
// lookup by string(b) does not allocate.
func (in *Interner) name(b []byte) string {
	if s, ok := in.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in.names) < maxInternedNames {
		in.names[s] = s
	}
	return s
}

// access resolves the access expression spelled by b. It parses the
// canonical spellings — a root followed by [digits] subscripts of at most
// 18 digits and .field selections — straight from the bytes into the path
// slab; every other spelling, including every malformed one, goes through
// ctype.ParseAccess, which stays the one grammar (signs, overflow and the
// error texts are its own).
func (in *Interner) access(b []byte) (ctype.AccessExpr, error) {
	i := 0
	for i < len(b) && b[i] != '.' && b[i] != '[' && b[i] != ']' {
		i++
	}
	if i == 0 || i < len(b) && b[i] == ']' {
		return ctype.ParseAccess(string(b))
	}
	if i == len(b) {
		return ctype.AccessExpr{Root: in.name(b)}, nil
	}
	rootEnd := i
	// Every element spends at least two bytes ('.' plus a name byte, or
	// '[', a digit and ']'), which bounds the slab space the path needs.
	if need := (len(b) - i + 1) / 2; cap(in.slab) < need {
		in.grow(need)
	}
	slab := in.slab[:cap(in.slab)]
	k := 0
	for i < len(b) {
		if b[i] == '.' {
			i++
			j := i
			for j < len(b) && b[j] != '.' && b[j] != '[' {
				j++
			}
			if j == i {
				return ctype.ParseAccess(string(b))
			}
			slab[k] = ctype.PathElem{Field: in.name(b[i:j])}
			k++
			i = j
			continue
		}
		if b[i] != '[' {
			return ctype.ParseAccess(string(b))
		}
		j := i + 1
		var idx int64
		for j < len(b) && j-i <= 18 && b[j] >= '0' && b[j] <= '9' {
			idx = idx*10 + int64(b[j]-'0')
			j++
		}
		if j == i+1 || j == len(b) || b[j] != ']' {
			return ctype.ParseAccess(string(b))
		}
		slab[k] = ctype.PathElem{Index: idx}
		k++
		i = j + 1
	}
	path := slab[:k:k]
	in.slab = slab[k:]
	return ctype.AccessExpr{Root: in.name(b[:rootEnd]), Path: path}, nil
}

// grow starts a fresh path chunk with room for at least need elements. The
// old chunk is left to the paths already carved from it.
func (in *Interner) grow(need int) {
	in.chunk = min(max(2*in.chunk, minPathChunk), maxPathChunk)
	in.slab = make([]ctype.PathElem, max(in.chunk, need))
}

// maxRecordFields is the widest legal record: op addr size func scope frame
// thread var. One extra slot catches trailing junk without scanning it.
const maxRecordFields = 8

// asciiSpace marks the bytes the text grammar treats as field separators.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true, '\v': true, '\f': true}

// splitFields splits line on ASCII whitespace into at most len(dst) fields,
// returning the field count, or -1 when there are more than len(dst)-1
// fields (too many to be a record).
func splitFields(line []byte, dst *[maxRecordFields + 1][]byte) int {
	n := 0
	i := 0
	for {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		if i == len(line) {
			return n
		}
		if n == len(dst) {
			return -1
		}
		j := i
		for j < len(line) && !asciiSpace[line[j]] {
			j++
		}
		dst[n] = line[i:j]
		n++
		i = j
	}
}

// parseRecordInto is the shared parser: it overwrites *r with the record
// line spells. in == nil allocates fresh strings and paths.
func parseRecordInto(r *Record, line []byte, in *Interner) error {
	*r = Record{}
	var fields [maxRecordFields + 1][]byte
	nf := splitFields(line, &fields)
	if nf < 0 {
		return fmt.Errorf("trace: trailing fields in %q", line)
	}
	if nf < 4 {
		return fmt.Errorf("trace: short record %q", line)
	}
	if len(fields[0]) != 1 {
		return fmt.Errorf("trace: bad op %q in %q", fields[0], line)
	}
	r.Op = Op(fields[0][0])
	if !r.Op.Valid() {
		return fmt.Errorf("trace: bad op %q in %q", fields[0], line)
	}
	addr, ok := parseHex(fields[1])
	if !ok {
		return fmt.Errorf("trace: bad address %q in %q", fields[1], line)
	}
	r.Addr = addr
	size, ok := parseInt(fields[2])
	if !ok || size < 0 {
		return fmt.Errorf("trace: bad size %q in %q", fields[2], line)
	}
	r.Size = size
	if in != nil {
		r.Func = in.name(fields[3])
	} else {
		r.Func = string(fields[3])
	}
	if nf == 4 {
		return nil
	}
	scope := fields[4]
	if len(scope) != 2 || (scope[0] != 'G' && scope[0] != 'L') || (scope[1] != 'V' && scope[1] != 'S') {
		return fmt.Errorf("trace: bad scope %q in %q", scope, line)
	}
	r.HasSym = true
	r.Vis = Visibility(scope[0])
	r.Aggregate = scope[1] == 'S'
	varIdx := 5
	if r.Vis == Local {
		if nf != 8 {
			return fmt.Errorf("trace: local record needs frame, thread, var: %q", line)
		}
		frame, ok := parseInt(fields[5])
		if !ok {
			return fmt.Errorf("trace: bad frame %q in %q", fields[5], line)
		}
		thread, ok := parseInt(fields[6])
		if !ok {
			return fmt.Errorf("trace: bad thread %q in %q", fields[6], line)
		}
		r.Frame, r.Thread = int(frame), int(thread)
		varIdx = 7
	} else if nf != 6 {
		return fmt.Errorf("trace: expected variable name at end of %q", line)
	}
	var err error
	if in != nil {
		r.Var, err = in.access(fields[varIdx])
	} else {
		r.Var, err = ctype.ParseAccess(string(fields[varIdx]))
	}
	if err != nil {
		return fmt.Errorf("trace: %v in %q", err, line)
	}
	return nil
}

// parseHex parses an unsigned hex field (no 0x prefix, no sign).
func parseHex(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// parseInt parses a decimal integer field with an optional leading minus
// (frame/thread fields historically admitted negative values; semantic
// checks flag them downstream).
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '-' {
		neg = true
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	if len(b) > 19 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
		if v < 0 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, true
}
