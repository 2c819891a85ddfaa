// The compact binary trace format. JSON traces are fine for tests and
// wrong by orders of magnitude for real block traces: a million-record
// capture is ~100 MB of JSON and seconds of reflection-driven decode.
// The binary format holds the same Trace losslessly in a few bytes per
// record and decodes with four varint reads per record:
//
//	magic "TRXB" | version 1
//	uvarint len(Name) | Name bytes
//	uvarint Capacity | uvarint SectorSize
//	uvarint Float64bits(RotationPeriod)
//	uvarint len(Boundaries) | zigzag b[0] | zigzag deltas...
//	blocks: uvarint n (1..maxBlockRecords) | n records
//	trailer: 0x00 | uvarint total record count
//
// One record is four varints of per-field deltas against the previous
// record: zigzag(LBN delta) — trace locality makes these small —
// uvarint(Sectors<<1 | Write), and the XOR of the previous record's
// IEEE-754 bits for Service and Issue (similar values share sign,
// exponent, and high mantissa bits, so the XOR is small; identical
// values — repeated service times, absent issue times — are one zero
// byte). Because every field is a delta the stream is canonical:
// encoding a decoded trace reproduces the input bytes bit-exactly,
// which is what the round-trip gate in BENCH_replay.json pins.
//
// Streaming invariants: the Writer emits the header eagerly and
// records in bounded blocks, so a capture of any length streams
// through an io.Writer without materializing; the Reader validates the
// header at open and each record as it is decoded (the same
// device.CheckBounds gate live requests pass, with the record index in
// the error), holds one block of state, and distinguishes a clean
// trailer from truncation — a trace cut mid-stream is ErrCorrupt, not
// a silently shorter workload.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"traxtents/internal/device"
)

// ErrCorrupt is the typed class for structurally invalid binary trace
// data: bad magic, unknown version, a truncated or overlong varint, a
// block that ends mid-record, a missing trailer, or a record count
// that does not match the trailer. Semantically invalid records inside
// a well-formed stream (out-of-bounds ranges, negative times) wrap
// device.ErrInvalidRequest instead.
var ErrCorrupt = errors.New("corrupt binary trace")

var binaryMagic = [4]byte{'T', 'R', 'X', 'B'}

const (
	binaryVersion = 1
	// maxBlockRecords bounds one block: the Writer flushes at this many
	// records and the Reader rejects counts above it, so decode state
	// stays O(1) and a hostile count cannot force a giant allocation.
	maxBlockRecords = 4096
	// maxNameLen bounds the header's device name.
	maxNameLen = 1 << 16
)

func corruptf(format string, args ...interface{}) error {
	return fmt.Errorf("trace: %w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// codecState is the per-field delta context threaded through a stream;
// encoder and decoder advance identical copies.
type codecState struct {
	lbn     int64
	svcBits uint64
	issBits uint64
}

// record applies one record body's four varints — zigzag LBN delta,
// sectors<<1|write, and the XORs of the service and issue bits — to
// the delta state and writes record idx, checked against capacity,
// into *rec. DecodeBinary and Reader both decode through it.
func (st *codecState) record(rec *Record, idx int, capacity int64, dz, sw, svcX, issX uint64) error {
	if sw>>1 > math.MaxInt32 {
		return corruptf("record %d: sector count %d", idx, sw>>1)
	}
	st.lbn += unzigzag(dz)
	st.svcBits ^= svcX
	st.issBits ^= issX
	*rec = Record{
		LBN:     st.lbn,
		Sectors: int(sw >> 1),
		Write:   sw&1 == 1,
		Service: math.Float64frombits(st.svcBits),
		Issue:   math.Float64frombits(st.issBits),
	}
	return checkRecord(idx, *rec, capacity)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ---- encoding ----

// appendHeader serializes a (validated) trace header.
func appendHeader(buf []byte, tr Trace) []byte {
	buf = append(buf, binaryMagic[:]...)
	buf = append(buf, binaryVersion)
	buf = binary.AppendUvarint(buf, uint64(len(tr.Name)))
	buf = append(buf, tr.Name...)
	buf = binary.AppendUvarint(buf, uint64(tr.Capacity))
	buf = binary.AppendUvarint(buf, uint64(tr.SectorSize))
	buf = binary.AppendUvarint(buf, math.Float64bits(tr.RotationPeriod))
	buf = binary.AppendUvarint(buf, uint64(len(tr.Boundaries)))
	prev := int64(0)
	for _, b := range tr.Boundaries {
		buf = binary.AppendUvarint(buf, zigzag(b-prev))
		prev = b
	}
	return buf
}

// appendRecord serializes one record against the delta state.
func appendRecord(buf []byte, st *codecState, rec Record) []byte {
	buf = binary.AppendUvarint(buf, zigzag(rec.LBN-st.lbn))
	sw := uint64(rec.Sectors) << 1
	if rec.Write {
		sw |= 1
	}
	buf = binary.AppendUvarint(buf, sw)
	svc, iss := math.Float64bits(rec.Service), math.Float64bits(rec.Issue)
	buf = binary.AppendUvarint(buf, svc^st.svcBits)
	buf = binary.AppendUvarint(buf, iss^st.issBits)
	st.lbn, st.svcBits, st.issBits = rec.LBN, svc, iss
	return buf
}

// Writer streams a trace to an io.Writer in the binary format: the
// header up front, records in bounded blocks as they arrive, a
// truncation-detecting trailer at Close. Nothing proportional to the
// trace length is ever held in memory.
type Writer struct {
	w        *bufio.Writer
	capacity int64 // header capacity, gating record bounds
	st       codecState
	block    []byte // encoded records of the open block
	n        int    // records in the open block
	total    int
	done     bool
	err      error
}

// NewWriter validates the header (Records are ignored; stream them
// through Write) and emits it. Close finishes the stream; the
// underlying writer is not closed.
func NewWriter(w io.Writer, header Trace) (*Writer, error) {
	if err := checkHeader(header); err != nil {
		return nil, err
	}
	if len(header.Name) > maxNameLen {
		return nil, fmt.Errorf("trace: device name of %d bytes exceeds the format's %d limit",
			len(header.Name), maxNameLen)
	}
	if err := checkRotation(header.RotationPeriod); err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(appendHeader(nil, header)); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &Writer{w: bw, capacity: header.Capacity}, nil
}

// Write appends one record to the stream. Records are validated here
// (the Writer knows the header's capacity), so an invalid capture
// fails at the source with its record index.
func (w *Writer) Write(rec Record) error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return fmt.Errorf("trace: write after Close")
	}
	if err := checkRecord(w.total, rec, w.capacity); err != nil {
		return err
	}
	w.block = appendRecord(w.block, &w.st, rec)
	w.n++
	w.total++
	if w.n >= maxBlockRecords {
		return w.flushBlock()
	}
	return nil
}

// flushBlock frames and emits the open block.
func (w *Writer) flushBlock() error {
	if w.n == 0 {
		return nil
	}
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(w.n))
	if _, err := w.w.Write(hdr[:k]); err != nil {
		w.err = fmt.Errorf("trace: write block: %w", err)
		return w.err
	}
	if _, err := w.w.Write(w.block); err != nil {
		w.err = fmt.Errorf("trace: write block: %w", err)
		return w.err
	}
	w.block = w.block[:0]
	w.n = 0
	return nil
}

// Close flushes the final block, writes the trailer, and flushes the
// buffered writer. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.done {
		return nil
	}
	w.done = true
	if err := w.flushBlock(); err != nil {
		return err
	}
	var buf [1 + binary.MaxVarintLen64]byte
	buf[0] = 0 // block count 0: end of records
	k := 1 + binary.PutUvarint(buf[1:], uint64(w.total))
	if _, err := w.w.Write(buf[:k]); err != nil {
		w.err = fmt.Errorf("trace: write trailer: %w", err)
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("trace: flush: %w", err)
		return w.err
	}
	return nil
}

// EncodeBinary serializes a whole trace into the binary format — the
// compact counterpart of Encode. The encoding is canonical: any trace
// that decodes re-encodes to the identical bytes.
func EncodeBinary(tr Trace) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(64 + 8*len(tr.Records))
	w, err := NewWriter(&buf, tr)
	if err != nil {
		return nil, err
	}
	for _, rec := range tr.Records {
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkRotation rejects rotation periods JSON could never have
// produced (NaN, infinities) or that no device has (negative).
func checkRotation(rot float64) error {
	if math.IsNaN(rot) || math.IsInf(rot, 0) || rot < 0 {
		return fmt.Errorf("trace: %w: decoded header invalid (rotation period %g)",
			device.ErrInvalidRequest, rot)
	}
	return nil
}

// ---- decoding ----

// sliceDec decodes varints straight off a byte slice (the bulk path:
// no reader indirection on the per-record loop).
type sliceDec struct {
	b   []byte
	off int
}

func (d *sliceDec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, corruptf("bad varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

// readBytes returns the next n raw bytes (valid until the next call).
func (d *sliceDec) readBytes(n int) ([]byte, error) {
	if n > len(d.b)-d.off {
		return nil, corruptf("short read at offset %d", d.off)
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *sliceDec) remaining() int { return len(d.b) - d.off }

// bufioDec decodes varints from a buffered stream (the Reader path).
type bufioDec struct {
	br      *bufio.Reader
	scratch []byte
}

func (d *bufioDec) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, corruptf("bad varint: %v", err)
	}
	return v, nil
}

func (d *bufioDec) readBytes(n int) ([]byte, error) {
	if cap(d.scratch) < n {
		d.scratch = make([]byte, n)
	}
	b := d.scratch[:n]
	if _, err := io.ReadFull(d.br, b); err != nil {
		return nil, corruptf("short read: %v", err)
	}
	return b, nil
}

// varintSource is what header decoding needs; both the bulk slice path
// and the streaming reader provide it.
type varintSource interface {
	uvarint() (uint64, error)
	readBytes(n int) ([]byte, error)
}

// decodeHeader parses and validates the header. Boundary tables grow
// by append, so a hostile count cannot force an allocation larger than
// the data actually present.
func decodeHeader(d varintSource) (Trace, error) {
	var tr Trace
	lead, err := d.readBytes(len(binaryMagic) + 1)
	if err != nil {
		return tr, err
	}
	if !bytes.Equal(lead[:4], binaryMagic[:]) {
		return tr, corruptf("bad magic %q", lead[:4])
	}
	if v := lead[4]; v != binaryVersion {
		return tr, corruptf("unknown format version %d", v)
	}
	nameLen, err := d.uvarint()
	if err != nil {
		return tr, err
	}
	if nameLen > maxNameLen {
		return tr, corruptf("device name of %d bytes", nameLen)
	}
	name, err := d.readBytes(int(nameLen))
	if err != nil {
		return tr, err
	}
	tr.Name = string(name)
	capU, err := d.uvarint()
	if err != nil {
		return tr, err
	}
	secU, err := d.uvarint()
	if err != nil {
		return tr, err
	}
	rotBits, err := d.uvarint()
	if err != nil {
		return tr, err
	}
	tr.Capacity, tr.SectorSize = int64(capU), int(int64(secU))
	tr.RotationPeriod = math.Float64frombits(rotBits)
	if err := checkHeader(tr); err != nil {
		return tr, err
	}
	if err := checkRotation(tr.RotationPeriod); err != nil {
		return tr, err
	}
	nb, err := d.uvarint()
	if err != nil {
		return tr, err
	}
	if nb > 0 {
		tr.Boundaries = make([]int64, 0, min(nb, 1<<16))
		prev := int64(0)
		for i := uint64(0); i < nb; i++ {
			zz, err := d.uvarint()
			if err != nil {
				return tr, err
			}
			prev += unzigzag(zz)
			tr.Boundaries = append(tr.Boundaries, prev)
		}
	}
	return tr, nil
}

// decodeRecordSlice parses one record body against the delta state
// into *rec.
func decodeRecordSlice(d *sliceDec, st *codecState, rec *Record, idx int, capacity int64) error {
	dz, err := d.uvarint()
	if err != nil {
		return err
	}
	sw, err := d.uvarint()
	if err != nil {
		return err
	}
	svcX, err := d.uvarint()
	if err != nil {
		return err
	}
	issX, err := d.uvarint()
	if err != nil {
		return err
	}
	return st.record(rec, idx, capacity, dz, sw, svcX, issX)
}

// DecodeBinary parses a whole binary-encoded trace, validating the
// header and every record (with its index in any error). Trailing
// garbage, truncation, and a mismatched trailer count all fail with
// ErrCorrupt.
func DecodeBinary(data []byte) (Trace, error) {
	d := &sliceDec{b: data}
	tr, err := decodeHeader(d)
	if err != nil {
		return Trace{}, err
	}
	var st codecState
	for {
		n, err := d.uvarint()
		if err != nil {
			return Trace{}, err
		}
		if n == 0 {
			break
		}
		if n > maxBlockRecords {
			return Trace{}, corruptf("block of %d records exceeds the %d limit", n, maxBlockRecords)
		}
		if tr.Records == nil {
			// First block: records cost >= 4 bytes each, so the input
			// length bounds a sane initial capacity.
			est := len(data) / 4
			if est > maxBlockRecords {
				est = maxBlockRecords * (1 + est/maxBlockRecords)
			}
			tr.Records = make([]Record, 0, min(est, 1<<20))
		}
		for i := 0; i < int(n); i++ {
			k := len(tr.Records)
			tr.Records = append(tr.Records, Record{})
			if err := decodeRecordSlice(d, &st, &tr.Records[k], k, tr.Capacity); err != nil {
				return Trace{}, err
			}
		}
	}
	total, err := d.uvarint()
	if err != nil {
		return Trace{}, err
	}
	if int(total) != len(tr.Records) {
		return Trace{}, corruptf("trailer says %d records, stream holds %d", total, len(tr.Records))
	}
	if d.remaining() != 0 {
		return Trace{}, corruptf("%d trailing bytes after the trailer", d.remaining())
	}
	if len(tr.Records) == 0 {
		tr.Records = nil
	}
	return tr, nil
}

// Reader streams records out of a binary-encoded trace without
// materializing it: the header is read and validated at open, records
// decode one at a time with O(1) state.
type Reader struct {
	br     *bufio.Reader
	header Trace
	st     codecState
	left   uint64 // records left in the open block
	idx    int
	done   bool
	err    error
}

// NewReader wraps an io.Reader holding a binary trace, consuming and
// validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	hdr, err := decodeHeader(&bufioDec{br: br})
	if err != nil {
		return nil, err
	}
	return &Reader{br: br, header: hdr}, nil
}

// Header returns the trace's device identity; Records is nil (stream
// them with Next).
func (r *Reader) Header() Trace { return r.header }

// Next decodes the next record, returning io.EOF after the last one.
// Any malformed or invalid byte — including truncation before the
// trailer — is an error carrying the record index.
func (r *Reader) Next() (Record, error) {
	if r.err != nil {
		return Record{}, r.err
	}
	if r.done {
		return Record{}, io.EOF
	}
	for r.left == 0 {
		n, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Record{}, r.fail(corruptf("record %d: truncated block header", r.idx))
		}
		if n == 0 {
			total, err := binary.ReadUvarint(r.br)
			if err != nil {
				return Record{}, r.fail(corruptf("truncated trailer after %d records", r.idx))
			}
			if int(total) != r.idx {
				return Record{}, r.fail(corruptf("trailer says %d records, stream holds %d", total, r.idx))
			}
			r.done = true
			return Record{}, io.EOF
		}
		if n > maxBlockRecords {
			return Record{}, r.fail(corruptf("block of %d records exceeds the %d limit", n, maxBlockRecords))
		}
		r.left = n
	}
	rec, err := r.readRecord()
	if err != nil {
		return Record{}, r.fail(err)
	}
	r.left--
	r.idx++
	return rec, nil
}

// Count returns how many records Next has returned so far.
func (r *Reader) Count() int { return r.idx }

func (r *Reader) fail(err error) error {
	r.err = err
	return err
}

// readRecord decodes one record body from the buffered reader.
func (r *Reader) readRecord() (Record, error) {
	var vals [4]uint64
	for i := range vals {
		v, err := binary.ReadUvarint(r.br)
		if err != nil {
			return Record{}, corruptf("record %d: truncated", r.idx)
		}
		vals[i] = v
	}
	var rec Record
	err := r.st.record(&rec, r.idx, r.header.Capacity, vals[0], vals[1], vals[2], vals[3])
	return rec, err
}
