package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"allpairs/internal/wire"
)

// Application payloads: 64 bytes, one in ten 1200 bytes. Every payload
// starts with its flow index, sequence number and virtual send time; the
// rest is a filler derived from (flow, seq), so a receiver can prove the
// datagram intact without any state beyond the flow table.
const (
	smallPayload = 64
	largePayload = 1200
	payloadHdr   = 4 + 4 + 8
)

// payloadSize is the size of datagram seq of flow: a fixed function of both
// so the receiver can check it.
func payloadSize(flow, seq uint32) int {
	if (flow*7+seq)%10 == 0 {
		return largePayload
	}
	return smallPayload
}

func fillerByte(flow, seq uint32, i int) byte {
	return byte(flow*131 + seq*31 + uint32(i)*7)
}

// appendPayload appends the payload of datagram seq of flow, sent at the
// given virtual time, to b.
func appendPayload(b []byte, flow, seq uint32, sent time.Duration) []byte {
	b = binary.BigEndian.AppendUint32(b, flow)
	b = binary.BigEndian.AppendUint32(b, seq)
	b = binary.BigEndian.AppendUint64(b, uint64(sent))
	for i := payloadHdr; i < payloadSize(flow, seq); i++ {
		b = append(b, fillerByte(flow, seq, i))
	}
	return b
}

var errCorrupt = errors.New("corrupted payload")

// parsePayload checks a received payload's size and filler against its
// header and returns the header fields.
func parsePayload(p []byte) (flow, seq uint32, sent time.Duration, err error) {
	if len(p) < payloadHdr {
		return 0, 0, 0, errCorrupt
	}
	flow = binary.BigEndian.Uint32(p)
	seq = binary.BigEndian.Uint32(p[4:])
	sent = time.Duration(binary.BigEndian.Uint64(p[8:]))
	if len(p) != payloadSize(flow, seq) {
		return 0, 0, 0, errCorrupt
	}
	for i := payloadHdr; i < len(p); i++ {
		if p[i] != fillerByte(flow, seq, i) {
			return 0, 0, 0, errCorrupt
		}
	}
	return flow, seq, sent, nil
}

// flow is one constant-rate stream between two members.
type flow struct {
	src, dst     int // endpoints
	srcID, dstID wire.NodeID
	next         uint32   // next sequence number to send
	seen         []uint64 // bitset of delivered sequence numbers
	retired      bool
}

// dataPlane is the open-loop traffic generator and the receiving side's
// integrity checker. Sends follow a virtual-time schedule, so the generator
// is never late: every datagram leaves exactly when it is due.
type dataPlane struct {
	f      *fleet
	rng    *rand.Rand
	period time.Duration
	until  time.Duration // no sends at or after this virtual time
	flows  []*flow
	buf    []byte

	attempted, failed, delivered uint64
	dups                         uint64
	latencies                    []float64 // ms, delivered datagrams
	checkErrs                    []string
	badDatagrams                 uint64
}

func newDataPlane(f *fleet, seed int64) *dataPlane {
	d := &dataPlane{
		f:      f,
		rng:    rand.New(rand.NewSource(seed*104723 + 11)),
		period: time.Duration(float64(time.Second) / f.w.flowRate),
	}
	f.onData = d.receive
	return d
}

// start opens the workload's flows between random distinct members of eps,
// sending from now until the given virtual time.
func (d *dataPlane) start(eps []int, until time.Duration) {
	d.until = until
	for i := 0; i < d.f.w.flows; i++ {
		d.open(eps)
	}
}

func (d *dataPlane) open(eps []int) {
	a := eps[d.rng.Intn(len(eps))]
	b := eps[d.rng.Intn(len(eps)-1)]
	if b == a {
		b = eps[len(eps)-1]
	}
	fl := &flow{src: a, dst: b, srcID: d.f.envs[a].LocalID(), dstID: d.f.envs[b].LocalID()}
	idx := uint32(len(d.flows))
	d.flows = append(d.flows, fl)
	var tick func()
	tick = func() {
		if fl.retired || d.f.net.Elapsed() >= d.until {
			return
		}
		d.send(idx, fl)
		d.f.net.After(d.period, tick)
	}
	d.f.net.After(time.Duration(d.rng.Int63n(int64(d.period))), tick)
}

// replace retires every flow touching a departed endpoint and opens a
// fresh flow between members of eps for each.
func (d *dataPlane) replace(departed int, eps []int) {
	n := len(d.flows)
	for _, fl := range d.flows[:n] {
		if !fl.retired && (fl.src == departed || fl.dst == departed) {
			fl.retired = true
			d.open(eps)
		}
	}
}

func (d *dataPlane) send(idx uint32, fl *flow) {
	seq := fl.next
	fl.next++
	d.buf = appendPayload(d.buf[:0], idx, seq, d.f.net.Elapsed())
	d.attempted++
	node := d.f.nodes[fl.src]
	var err error
	if tr := d.f.tr; tr != nil {
		start := time.Now()
		err = node.SendData(fl.dstID, d.buf)
		tr.end(layerOverlay, start)
	} else {
		err = node.SendData(fl.dstID, d.buf)
	}
	if err != nil {
		d.failed++
	}
}

// receive checks one delivered datagram: intact, addressed to the member
// that got it, from the flow's origin, and not seen before unless the fault
// plane duplicated it.
func (d *dataPlane) receive(ep int, origin wire.NodeID, p []byte) {
	idx, seq, sent, err := parsePayload(p)
	switch {
	case err != nil:
		d.fail("endpoint %d: %v", ep, err)
		return
	case int(idx) >= len(d.flows):
		d.fail("endpoint %d: unknown flow %d", ep, idx)
		return
	}
	fl := d.flows[idx]
	switch {
	case fl.dst != ep:
		d.fail("flow %d seq %d: delivered to endpoint %d, addressed to %d", idx, seq, ep, fl.dst)
		return
	case origin != fl.srcID:
		d.fail("flow %d seq %d: origin %d, sent by %d", idx, seq, origin, fl.srcID)
		return
	case seq >= fl.next:
		d.fail("flow %d: seq %d never sent", idx, seq)
		return
	}
	word, bit := seq/64, uint64(1)<<(seq%64)
	for int(word) >= len(fl.seen) {
		fl.seen = append(fl.seen, 0)
	}
	if fl.seen[word]&bit != 0 {
		d.dups++
		return
	}
	fl.seen[word] |= bit
	d.delivered++
	d.latencies = append(d.latencies, float64(d.f.net.Elapsed()-sent)/float64(time.Millisecond))
}

func (d *dataPlane) fail(format string, args ...any) {
	d.badDatagrams++
	if len(d.checkErrs) < 5 {
		d.checkErrs = append(d.checkErrs, fmt.Sprintf(format, args...))
	}
}

// check returns the output-check failures of the data plane: bad datagrams
// and duplicates beyond what the fault plane created.
func (d *dataPlane) check(faultDups uint64) []string {
	errs := append([]string(nil), d.checkErrs...)
	if d.badDatagrams > uint64(len(d.checkErrs)) {
		errs = append(errs, fmt.Sprintf("%d bad datagrams in all", d.badDatagrams))
	}
	if d.dups > faultDups {
		errs = append(errs, fmt.Sprintf("%d duplicate deliveries, but the fault plane duplicated only %d data datagrams", d.dups, faultDups))
	}
	return errs
}
