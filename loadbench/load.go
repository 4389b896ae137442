package main

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// answer is one response the driver could not verify inline: a cold
// computation, a batch, or anything that is not the expected warm body.
type answer struct {
	req  request
	code int
	body []byte
	err  error
	at   time.Duration // when the answer arrived, from the window start
}

// window is what one closed-loop measurement window observed.
type window struct {
	seconds   float64
	rttNs     []int64 // client round trip of every request
	doneNs    []int64 // when each request completed, from the window start
	overNs    []int64 // traced: round trip minus entry-node handler time
	warmNs    []int64 // traced: entry-node handler time of inline-verified warm hits
	warm      int     // requests answered with the expected warm body
	answers   []answer
	attempted int
	items     map[*item]bool // every item sent
	prep      bool           // preparation traffic, not a timed window
}

// drive runs a closed loop of clients for dur: each client sends its
// next request only once the previous answer is read. Every request
// asks for an inline terminal answer (?wait=1). A warm answer is
// verified inline against the expected bytes of its key (expWarm);
// everything else is kept for verification after the window.
func drive(nodes []*node, s *stream, clients int, dur time.Duration, expWarm map[*item][]byte, traced bool) *window {
	for _, nd := range nodes {
		nd.th.tracing.Store(traced)
	}
	defer func() {
		for _, nd := range nodes {
			nd.th.tracing.Store(false)
		}
	}()
	parts := make([]window, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer closeClient(hc)
			w := &parts[c]
			w.items = map[*item]bool{}
			var buf bytes.Buffer
			var hdr http.Header
			if traced {
				hdr = http.Header{clientHeader: {strconv.Itoa(c)}}
			}
			for seq := int64(1); time.Now().Before(deadline); seq++ {
				r := s.take()
				url := nodes[r.node].url + "/v1/jobs?wait=1"
				if r.item.batch {
					url = nodes[r.node].url + "/v1/jobs:batch"
				}
				if traced {
					hdr[seqHeader] = []string{strconv.FormatInt(seq, 10)}
				}
				t0 := time.Now()
				code, err := postInto(hc, url, r.item.body, hdr, &buf)
				rtt := int64(time.Since(t0))
				w.attempted++
				w.items[r.item] = true
				w.rttNs = append(w.rttNs, rtt)
				w.doneNs = append(w.doneNs, int64(time.Since(start)))
				h := int64(-1)
				if traced {
					h = nodes[r.node].th.handlerTime(c, seq)
					if h >= 0 {
						w.overNs = append(w.overNs, rtt-h)
					}
				}
				if exp, ok := expWarm[r.item]; ok && err == nil && code == http.StatusOK && bytes.Equal(buf.Bytes(), exp) {
					w.warm++
					if h >= 0 {
						w.warmNs = append(w.warmNs, h)
					}
					continue
				}
				w.answers = append(w.answers, answer{req: r, code: code, body: bytes.Clone(buf.Bytes()), err: err, at: time.Since(start)})
			}
		}(c)
	}
	wg.Wait()
	out := &window{seconds: time.Since(start).Seconds(), items: map[*item]bool{}}
	for _, p := range parts {
		for it := range p.items {
			out.items[it] = true
		}
		out.rttNs = append(out.rttNs, p.rttNs...)
		out.doneNs = append(out.doneNs, p.doneNs...)
		out.overNs = append(out.overNs, p.overNs...)
		out.warmNs = append(out.warmNs, p.warmNs...)
		out.warm += p.warm
		out.answers = append(out.answers, p.answers...)
		out.attempted += p.attempted
	}
	return out
}

// postInto sends one request and reads the answer into buf.
func postInto(c *http.Client, url string, body []byte, hdr http.Header, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// The end-to-end figures are medians over slices: equal stretches of
// the window, so a stall confined to a few of them does not move the
// figure. Throughput and the median take up to maxSlices slices of at
// least minMedianSamples requests; the p99 takes slices of at least
// minTailSamples, so each slice's p99 has ten samples beyond it.
const (
	maxSlices        = 20
	minMedianSamples = 200
	minTailSamples   = 1000
)

// endToEnd is the window's throughput and latency percentiles.
type endToEnd struct {
	rps, p50Ns, p99Ns float64
	slices, p99Slices int
	minBeyond         int // fewest samples beyond the p99 in a slice
}

// sliced splits the window's round trips into k equal stretches by
// completion time.
func (w *window) sliced(k int) [][]int64 {
	span := w.seconds / float64(k)
	parts := make([][]int64, k)
	for i, rtt := range w.rttNs {
		s := min(int(float64(w.doneNs[i])/1e9/span), k-1)
		parts[s] = append(parts[s], rtt)
	}
	return parts
}

func sliceCount(n, minSamples int) int {
	return max(1, min(maxSlices, n/minSamples))
}

func (w *window) endToEnd() endToEnd {
	e := endToEnd{slices: sliceCount(len(w.rttNs), minMedianSamples), p99Slices: sliceCount(len(w.rttNs), minTailSamples), minBeyond: len(w.rttNs)}
	var rps, p50, p99 []float64
	for _, p := range w.sliced(e.slices) {
		a, _, _ := percentiles(p)
		rps = append(rps, float64(len(p))/(w.seconds/float64(e.slices)))
		p50 = append(p50, a)
	}
	for _, p := range w.sliced(e.p99Slices) {
		_, b, beyond := percentiles(p)
		p99 = append(p99, b)
		e.minBeyond = min(e.minBeyond, beyond)
	}
	e.rps, e.p50Ns, e.p99Ns = median(rps), median(p50), median(p99)
	return e
}
