// Parallel trace decoding. Both container formats admit embarrassingly
// parallel decode: binary blocks are self-describing (framing, string
// table, delta base and checksum are all block-local), and text lines are
// independent once split at newline boundaries. DecodeParallel slurps the
// input, carves it into per-worker pieces and decodes them concurrently,
// concatenating the per-piece record slices in input order so the result is
// deterministic and identical to a serial decode.
//
// Error semantics: the serial readers define the contract (ordered OnError
// callbacks, line/block numbers, lenient bad-line budgets, partial-prefix
// output on failure). The binary path reproduces it exactly — frames are
// walked serially (cheap: two varints plus a skip per block) and per-block
// damage is judged in block order after the parallel decode; a broken
// frame (truncation, corrupt length fields) aborts the walk before any
// OnError has fired and falls back to one serial pass, so error values,
// callbacks and the partial record prefix are byte-identical to
// BinaryReader. The text path takes the fast parallel route only when
// every chunk parses cleanly; the moment any worker sees a bad line it
// falls back to one serial pass over the full buffer, which recreates the
// byte-exact strict/lenient behaviour including line numbers.
package trace

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
)

// DecodeParallel reads the whole trace from r and decodes it using up to
// workers goroutines (<= 0 selects GOMAXPROCS). The format is sniffed from
// the magic. Results are identical to a serial Reader/BinaryReader decode:
// same records in the same order, same header, same error behaviour. When
// an error is returned, the accompanying records are exactly the serial
// readers' partial output — the prefix decoded before the failure, with
// lenient-mode skips applied in order.
func DecodeParallel(r io.Reader, opts DecodeOptions, workers int) (Header, bool, []Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Header{}, false, nil, err
	}
	return DecodeBytes(data, opts, workers)
}

// DecodeBytes is DecodeParallel over an in-memory trace.
func DecodeBytes(data []byte, opts DecodeOptions, workers int) (Header, bool, []Record, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if DetectFormat(data) == FormatBinary {
		return decodeBinaryBytes(data, opts, workers)
	}
	return decodeTextBytes(data, opts, workers)
}

// serialDecode is the fallback (and small-input) path: one pass through the
// ordinary reader for the format.
func serialDecode(data []byte, opts DecodeOptions) (Header, bool, []Record, error) {
	rd, _, err := OpenReader(bytes.NewReader(data), opts)
	if err != nil {
		return Header{}, false, nil, err
	}
	h, err := rd.Header()
	if err != nil && err != io.EOF {
		return h, rd.HasHeader(), nil, err
	}
	recs, err := rd.ReadAll()
	return h, rd.HasHeader(), recs, err
}

// ---- binary ----

// binaryBlock is one framed block located by the serial frame walk. A
// record-free block (auxiliary payload such as the block-index footer) is
// CRC-checked but never decoded.
type binaryBlock struct {
	frame
	// decode results
	recs []Record
	err  error
}

// decodeBinaryBytes walks the frames serially, decodes payloads in
// parallel, and merges in order with serial-identical damage handling. Any
// frame-level damage (truncation, corrupt length fields — errors the
// serial reader cannot skip either) aborts the walk before OnError has
// fired for anything, so falling back to serialDecode reproduces
// BinaryReader's callbacks, error value and partial record prefix exactly.
func decodeBinaryBytes(data []byte, opts DecodeOptions, workers int) (Header, bool, []Record, error) {
	h, hasHdr, p, err := parseBinaryPreamble(data)
	if err != nil {
		return serialDecode(data, opts)
	}

	var blocks []binaryBlock
	for len(p) > 0 {
		var f frame
		if f, p, err = parseFrame(p); err != nil {
			return serialDecode(data, opts)
		}
		blocks = append(blocks, binaryBlock{frame: f})
	}

	// The frame walk fixed every block's record count, so each block can
	// decode straight into its own region of one shared result slice —
	// workers never contend and the merge below only moves records when an
	// earlier block was dropped.
	offs := make([]int, len(blocks))
	total := 0
	for i := range blocks {
		offs[i] = total
		total += blocks[i].recCount
	}
	big := make([]Record, total)

	// Decode every block; damage is judged afterwards, in block order, so
	// OnError ordering and the bad budget match the serial reader.
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	if workers > len(blocks) {
		workers = len(blocks)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := blockDecoder{intern: NewInterner()}
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(blocks) {
					return
				}
				b := &blocks[i]
				if crc32.ChecksumIEEE(b.payload) != b.crc {
					b.err = ErrBlockChecksum
					continue
				}
				if b.recCount == 0 {
					continue
				}
				out := big[offs[i] : offs[i] : offs[i]+b.recCount]
				b.recs, b.err = dec.decode(b.payload, b.recCount, out)
			}
		}()
	}
	wg.Wait()

	w := 0
	bad := 0
	for i := range blocks {
		b := &blocks[i]
		if b.recCount == 0 {
			// Auxiliary record-free blocks lose no records when damaged;
			// the serial reader records the damage out of band and keeps
			// going, so a CRC failure here is not a decode error either.
			continue
		}
		if b.err == nil {
			if w != offs[i] {
				copy(big[w:], b.recs)
			}
			w += len(b.recs)
			continue
		}
		recs := big[:w]
		ble := &BadLineError{Line: i + 1, Err: b.err}
		if opts.OnError != nil {
			opts.OnError(ble.Line, "", ble.Err)
		}
		if opts.Mode != Lenient {
			return h, hasHdr, recs, ble
		}
		bad++
		if opts.MaxBadLines > 0 && bad > opts.MaxBadLines {
			return h, hasHdr, recs, fmt.Errorf("%w (bad-line budget %d exhausted)", ble, opts.MaxBadLines)
		}
	}
	return h, hasHdr, big[:w], nil
}

// ---- text ----

// errChunkBad aborts a chunk worker on the first malformed line; the caller
// then reruns the whole input serially to reproduce exact error semantics.
var errChunkBad = fmt.Errorf("trace: chunk contains a bad line")

// decodeTextBytes consumes the optional header serially, splits the rest at
// newline boundaries and parses chunks concurrently. Any bad line anywhere
// triggers the serial fallback.
func decodeTextBytes(data []byte, opts DecodeOptions, workers int) (Header, bool, []Record, error) {
	const minChunk = 64 * 1024
	if workers > len(data)/minChunk {
		workers = len(data) / minChunk
	}
	if workers < 2 {
		return serialDecode(data, opts)
	}

	// Consume leading blank lines and the optional START header; any
	// irregularity at the top (oversize first line, corrupt header) is the
	// serial path's business.
	var h Header
	hasHdr := false
	body := data
	maxLine := opts.maxLine()
	for {
		nl := bytes.IndexByte(body, '\n')
		line := body
		rest := []byte(nil)
		if nl >= 0 {
			line, rest = body[:nl], body[nl+1:]
		}
		if len(line) > maxLine {
			return serialDecode(data, opts)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if nl < 0 {
				return h, false, nil, nil // blank input
			}
			body = rest
			continue
		}
		if bytes.HasPrefix(line, []byte("START")) {
			hh, err := ParseHeader(string(line))
			if err != nil {
				return serialDecode(data, opts)
			}
			h, hasHdr = hh, true
			if nl < 0 {
				return h, true, nil, nil
			}
			body = rest
		}
		break
	}

	// Carve the body into newline-aligned chunks.
	bounds := make([]int, 0, workers+1)
	bounds = append(bounds, 0)
	for w := 1; w < workers; w++ {
		target := len(body) * w / workers
		if target <= bounds[len(bounds)-1] {
			continue
		}
		nl := bytes.IndexByte(body[target:], '\n')
		if nl < 0 {
			break
		}
		end := target + nl + 1
		if end > bounds[len(bounds)-1] {
			bounds = append(bounds, end)
		}
	}
	bounds = append(bounds, len(body))

	chunks := make([][]Record, len(bounds)-1)
	fail := false
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < len(bounds)-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs, err := parseChunk(body[bounds[i]:bounds[i+1]], maxLine)
			if err != nil {
				mu.Lock()
				fail = true
				mu.Unlock()
				return
			}
			chunks[i] = recs
		}(i)
	}
	wg.Wait()
	if fail {
		return serialDecode(data, opts)
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	recs := make([]Record, 0, total)
	for _, c := range chunks {
		recs = append(recs, c...)
	}
	return h, hasHdr, recs, nil
}

// parseChunk parses a newline-aligned slice of record lines in place with
// its own interner, failing fast on the first malformed or oversize line.
func parseChunk(chunk []byte, maxLine int) ([]Record, error) {
	in := NewInterner()
	var recs []Record
	for len(chunk) > 0 {
		nl := bytes.IndexByte(chunk, '\n')
		var line []byte
		if nl < 0 {
			line, chunk = chunk, nil
		} else {
			line, chunk = chunk[:nl], chunk[nl+1:]
		}
		if len(line) > maxLine {
			return nil, errChunkBad
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		recs = append(recs, Record{})
		if err := parseRecordInto(&recs[len(recs)-1], line, in); err != nil {
			return nil, errChunkBad
		}
	}
	return recs, nil
}
