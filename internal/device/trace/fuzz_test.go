package trace_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"traxtents/internal/device"
	"traxtents/internal/device/trace"
)

// FuzzTraceCodec throws arbitrary bytes at the binary decoder. The
// contract under attack: hostile input never panics and always fails
// with a typed error (ErrCorrupt or device.ErrInvalidRequest); input
// that DOES decode is a valid trace whose binary ↔ JSON ↔ binary
// round trip is bit-exact, and whose streaming Reader agrees with the
// bulk decoder record for record.
func FuzzTraceCodec(f *testing.F) {
	// Seeds: valid encodings of several shapes, plus truncations and
	// targeted damage so the fuzzer starts at the format's edges.
	for _, tr := range []trace.Trace{
		bigTrace(300, 11),
		{Capacity: 1, SectorSize: 1},
		{Name: "seed", Capacity: 1 << 30, SectorSize: 4096, RotationPeriod: 8.5,
			Boundaries: []int64{0, 1 << 20, 1 << 30},
			Records:    []trace.Record{{LBN: 7, Sectors: 3, Write: true, Service: 0.5, Issue: 1.5}}},
	} {
		b, err := trace.EncodeBinary(tr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:len(b)-1])
		mut := append([]byte(nil), b...)
		mut[len(mut)/2] ^= 0x40
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte("TRXB"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.DecodeBinary(data)
		if err != nil {
			if !errors.Is(err, trace.ErrCorrupt) && !errors.Is(err, device.ErrInvalidRequest) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Decoded: the trace must be fully valid and round-trip exactly.
		b2, err := trace.EncodeBinary(tr)
		if err != nil {
			t.Fatalf("decoded trace does not re-encode: %v", err)
		}
		if !bytes.Equal(b2, data) {
			t.Fatalf("encoding not canonical: %d bytes in, %d out", len(data), len(b2))
		}
		j, err := tr.Encode()
		if err != nil {
			t.Fatalf("decoded trace does not JSON-encode: %v", err)
		}
		viaJSON, err := trace.Decode(j)
		if err != nil {
			t.Fatalf("JSON round trip rejected: %v", err)
		}
		b3, err := trace.EncodeBinary(viaJSON)
		if err != nil {
			t.Fatalf("re-encode via JSON: %v", err)
		}
		if !bytes.Equal(b3, data) {
			t.Fatal("binary -> JSON -> binary not bit-exact")
		}
		// The streaming reader sees the same stream.
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("bulk decode succeeded but NewReader failed: %v", err)
		}
		for i := 0; ; i++ {
			rec, err := r.Next()
			if err == io.EOF {
				if i != len(tr.Records) {
					t.Fatalf("reader yielded %d records, bulk decode %d", i, len(tr.Records))
				}
				break
			}
			if err != nil {
				t.Fatalf("reader failed at record %d on bulk-decodable input: %v", i, err)
			}
			if rec != tr.Records[i] {
				t.Fatalf("reader record %d differs from bulk decode", i)
			}
		}
	})
}

// FuzzPlayer checks the player's key table against a per-key FIFO
// model on small random traces. Every two bytes of data make one
// record over a deliberately small key space, so keys repeat and
// collide; on 64-bit builds some lengths sit 2^31, 2^32 or 3*2^31
// above the rest.
// mode picks the request order — trace order, a windowed shuffle, or a
// full shuffle — and, with bit 2 set, mixes in requests for keys the
// trace lacks. seed drives the shuffles.
func FuzzPlayer(f *testing.F) {
	f.Add([]byte{}, uint8(4), int64(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0}, uint8(0), int64(1))
	f.Add([]byte{8, 1, 8, 5, 9, 1, 8, 1, 16, 2, 8, 5}, uint8(1), int64(2))
	f.Add(bytes.Repeat([]byte{3, 7, 200, 6, 41, 2}, 40), uint8(6), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, seed int64) {
		const maxRecords = 512
		tr := trace.Trace{Capacity: 1 << 20, SectorSize: 512}
		if strconv.IntSize == 64 {
			tr.Capacity = 1 << 34
		}
		for i := 0; i+1 < len(data) && i < 2*maxRecords; i += 2 {
			sectors := 8 << (data[i+1] & 3)
			if strconv.IntSize == 64 {
				sectors += int(int64(data[i+1]>>2&3) << 31)
			}
			tr.Records = append(tr.Records, trace.Record{
				LBN: int64(data[i]>>1) * 8, Sectors: sectors, Write: data[i]&1 == 1,
				Service: float64(len(tr.Records) + 1),
			})
		}
		rng := rand.New(rand.NewSource(seed))
		reqs := recordRequests(tr)
		if mode&4 != 0 {
			reqs = append(reqs, absentRequests(tr)...)
		}
		shuffle := func(o []device.Request) { rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] }) }
		switch mode % 3 {
		case 1:
			w := 2 + int(mode>>3)%15
			for s := 0; s < len(reqs); s += w {
				shuffle(reqs[s:min(s+w, len(reqs))])
			}
		case 2:
			shuffle(reqs)
		}
		checkPlayerModel(t, tr, reqs)
	})
}
