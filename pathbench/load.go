package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"simrankpp/internal/ingest"
)

// lats is a set of latency samples in nanoseconds.
type lats []int64

func (l lats) sorted() lats {
	s := append(lats(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// q returns the q-quantile of an ascending sample set by ceiling rank, in
// nanoseconds; 0 for an empty set.
func (l lats) q(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(q*float64(len(l))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(l) {
		i = len(l) - 1
	}
	return float64(l[i])
}

func (l lats) us(q float64) float64 { return l.q(q) / 1e3 }
func (l lats) ms(q float64) float64 { return l.q(q) / 1e6 }

// request is one prepared HTTP call.
type request struct {
	method string
	url    string
	body   []byte
}

func get(base, path, param, value string, top int) request {
	u := base + path + "?" + param + "=" + url.QueryEscape(value)
	if top > 0 {
		u += "&top=" + strconv.Itoa(top)
	}
	return request{method: http.MethodGet, url: u}
}

func batch(base string, queries []string) request {
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	for i, q := range queries {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(q))
	}
	b.WriteString(`]}`)
	return request{method: http.MethodPost, url: base + "/batch", body: b.Bytes()}
}

func ingestPost(base string, recs []ingest.Record) request {
	var b strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&b, "%s\t%s\t%d\t%d\t%g\n", r.Query, r.Ad, r.Impressions, r.Clicks, r.Rate)
	}
	return request{method: http.MethodPost, url: base + "/ingest", body: []byte(b.String())}
}

// client is one load-generator connection: a front-end server that waits
// for each reply before sending the next request.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// do sends req and reads the whole body, which stays valid until the
// client's next call. Transport errors are reported as status 0.
func (c *client) do(req *request) (status int, body []byte, lat time.Duration) {
	t0 := time.Now()
	var rd io.Reader
	if req.body != nil {
		rd = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.method, req.url, rd)
	if err != nil {
		return 0, nil, 0
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, time.Since(t0)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0)
	if err != nil {
		return 0, nil, lat
	}
	return resp.StatusCode, c.buf.Bytes(), lat
}

// closedLoop runs op on n clients, each sending its next operation only
// after the previous one completed, until the window closes. op gets the
// client's index and its operation counter.
func closedLoop(n int, window time.Duration, op func(c *client, ci, i int)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for i := 0; time.Now().Before(deadline); i++ {
				op(c, ci, i)
			}
		}(ci)
	}
	wg.Wait()
	return time.Since(start)
}

// pace blocks until due: it sleeps to within a millisecond and
// yield-spins the rest, then reports how late the generator woke.
func pace(due time.Time) time.Duration {
	if d := time.Until(due); d > time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return time.Since(due)
}

// sampler keeps the first cap distinct requests and their response
// bodies for the after-window correctness check.
type sampler struct {
	mu   sync.Mutex
	cap  int
	seen map[string]bool
	reqs []request
	got  [][]byte
}

func newSampler(cap int) *sampler { return &sampler{cap: cap, seen: map[string]bool{}} }

func (s *sampler) add(req *request, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.reqs) >= s.cap {
		return
	}
	key := req.url + "\x00" + string(req.body)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.reqs = append(s.reqs, *req)
	s.got = append(s.got, append([]byte(nil), body...))
}
