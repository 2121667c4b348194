package faultfs

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// faultClient returns a test server answering body to every request and
// a client whose transport routes through inj.
func faultClient(t *testing.T, inj *HTTPInjector, body string) (*httptest.Server, *http.Client) {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts, &http.Client{Transport: inj.Transport(nil)}
}

func TestTransportDropCountsDown(t *testing.T) {
	inj := NewHTTPInjector()
	ts, cl := faultClient(t, inj, "ok")
	host := strings.TrimPrefix(ts.URL, "http://")

	inj.Drop(host, 2)
	for i := 0; i < 2; i++ {
		if _, err := cl.Get(ts.URL); !errors.Is(err, ErrDropped) {
			t.Fatalf("request %d: err = %v, want ErrDropped", i, err)
		}
	}
	resp, err := cl.Get(ts.URL)
	if err != nil {
		t.Fatalf("post-drop request: %v", err)
	}
	defer resp.Body.Close()
	if b, _ := io.ReadAll(resp.Body); string(b) != "ok" {
		t.Fatalf("post-drop body = %q", b)
	}
	if inj.Calls() != 3 {
		t.Fatalf("Calls() = %d, want 3", inj.Calls())
	}
}

func TestTransportDropForeverUntilReset(t *testing.T) {
	inj := NewHTTPInjector()
	ts, cl := faultClient(t, inj, "ok")

	inj.Drop("", -1) // any host, permanently
	for i := 0; i < 3; i++ {
		if _, err := cl.Get(ts.URL); !errors.Is(err, ErrDropped) {
			t.Fatalf("request %d survived a dead-host drop: %v", i, err)
		}
	}
	inj.Reset()
	resp, err := cl.Get(ts.URL)
	if err != nil {
		t.Fatalf("post-reset request: %v", err)
	}
	resp.Body.Close()
}

func TestTransportTruncateBody(t *testing.T) {
	inj := NewHTTPInjector()
	ts, cl := faultClient(t, inj, "a long enough body to truncate")
	host := strings.TrimPrefix(ts.URL, "http://")

	inj.TruncateBody(host, 6)
	resp, err := cl.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated read err = %v, want ErrUnexpectedEOF", err)
	}
	if string(b) != "a long" {
		t.Fatalf("truncated body = %q, want first 6 bytes", b)
	}
}

func TestTransportLatencyHonorsContext(t *testing.T) {
	inj := NewHTTPInjector()
	ts, cl := faultClient(t, inj, "ok")

	inj.SetLatency("", time.Minute)
	cl.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err := cl.Get(ts.URL)
	if err == nil {
		t.Fatal("latency-injected request did not time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation waited out the injected latency (%v)", elapsed)
	}
}

func TestTransportHostScoping(t *testing.T) {
	inj := NewHTTPInjector()
	tsA, cl := faultClient(t, inj, "ok")
	tsB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer tsB.Close()

	inj.Drop(strings.TrimPrefix(tsA.URL, "http://"), -1)
	if _, err := cl.Get(tsA.URL); !errors.Is(err, ErrDropped) {
		t.Fatalf("scoped host not dropped: %v", err)
	}
	resp, err := cl.Get(tsB.URL)
	if err != nil {
		t.Fatalf("unscoped host affected by another host's fault: %v", err)
	}
	resp.Body.Close()
}
