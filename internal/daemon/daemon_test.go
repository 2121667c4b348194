package daemon

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// events is an ordered, goroutine-safe record of what happened.
type events struct {
	mu  sync.Mutex
	log []string
}

func (e *events) add(s string) {
	e.mu.Lock()
	e.log = append(e.log, s)
	e.mu.Unlock()
}

func (e *events) index(s string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, v := range e.log {
		if v == s {
			return i
		}
	}
	return -1
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// get fetches url and returns the status and body ("" and the error's
// text on failure, so a goroutine can report without t.Fatal).
func get(url string) (int, string) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// blockingHandler answers /slow only once release is closed, signalling
// entered first; every other path answers at once.
func blockingHandler(entered chan<- struct{}, release <-chan struct{}, ev *events) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			entered <- struct{}{}
			<-release
			io.WriteString(w, "slow done")
			ev.add("handler returned")
			return
		}
		io.WriteString(w, "ok")
	})
}

// TestServeStopsInOrder pins the lifecycle: with a request in flight when
// the context is cancelled, the background loop is cancelled and awaited
// while the listener still accepts (the drain has not started), the
// blocked request is still answered 200, Serve returns only after it,
// and the closer runs strictly after both the last handler and the
// background loop have returned. It is the simrank-gateway bug (main
// returned mid-drain: empty reply) and the ingesting daemon's bug (WAL
// closed before the drain: a draining /ingest answered 400) in one.
func TestServeStopsInOrder(t *testing.T) {
	ln := listen(t)
	url := "http://" + ln.Addr().String()
	ev := &events{}
	entered, release := make(chan struct{}, 1), make(chan struct{})
	bgStopping := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, ln, Spec{
			Handler: blockingHandler(entered, release, ev),
			Background: func(ctx context.Context) {
				<-ctx.Done()
				close(bgStopping)
				// The drain starts only once this function returns, so
				// the listener must still be accepting.
				if code, body := get(url + "/fast"); code != 200 {
					ev.add("listener closed before the background loop returned: " + body)
				}
				ev.add("background returned")
			},
			Close: func() error { ev.add("closed"); return nil },
		})
	}()

	type reply struct {
		code int
		body string
	}
	slow := make(chan reply, 1)
	go func() {
		code, body := get(url + "/slow")
		slow <- reply{code, body}
	}()
	<-entered
	cancel()
	<-bgStopping

	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	if ev.index("closed") >= 0 {
		t.Fatal("closer ran with a request still in flight")
	}
	close(release)
	if r := <-slow; r.code != 200 || r.body != "slow done" {
		t.Fatalf("request in flight at shutdown got %d %q, want 200 \"slow done\"", r.code, r.body)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	want := []string{"background returned", "handler returned", "closed"}
	ev.mu.Lock()
	got := strings.Join(ev.log, " | ")
	ev.mu.Unlock()
	if got != strings.Join(want, " | ") {
		t.Fatalf("order = %s, want %s", got, strings.Join(want, " | "))
	}
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after Serve returned")
	}
}

// TestServeDrainDeadline: a request that outlives the drain deadline
// makes Serve fail with an error that counts it, after the closer ran.
func TestServeDrainDeadline(t *testing.T) {
	defer func(d time.Duration) { drainDeadline = d }(drainDeadline)
	drainDeadline = 30 * time.Millisecond

	ln := listen(t)
	ev := &events{}
	entered, release := make(chan struct{}, 1), make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, ln, Spec{
			Handler: blockingHandler(entered, release, ev),
			Close:   func() error { ev.add("closed"); return nil },
		})
	}()
	clientDone := make(chan struct{})
	go func() { defer close(clientDone); get("http://" + ln.Addr().String() + "/slow") }()
	<-entered
	cancel()

	err := <-served
	if err == nil || !errors.Is(err, context.DeadlineExceeded) ||
		!strings.Contains(err.Error(), "drain deadline (30ms) expired with 1 requests still in flight") {
		t.Fatalf("Serve = %v, want an expired-drain error counting 1 request", err)
	}
	if ev.index("closed") < 0 {
		t.Fatal("closer did not run after the expired drain")
	}
	close(release)
	<-clientDone
}

// failingListener fails its first Accept.
type failingListener struct {
	net.Listener
	err error
}

func (l failingListener) Accept() (net.Conn, error) { return nil, l.err }

// TestServeListenerFailure: a listener that fails returns its error, and
// the background loop and the closer are still stopped and run.
func TestServeListenerFailure(t *testing.T) {
	boom := errors.New("accept: boom")
	ev := &events{}
	err := Serve(context.Background(), failingListener{listen(t), boom}, Spec{
		Handler:    http.NotFoundHandler(),
		Background: func(ctx context.Context) { <-ctx.Done(); ev.add("background returned") },
		Close:      func() error { ev.add("closed"); return nil },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Serve = %v, want the listener's error", err)
	}
	if bg, cl := ev.index("background returned"), ev.index("closed"); bg != 0 || cl != 1 {
		t.Fatalf("events = %v, want the background loop stopped, then the closer", ev.log)
	}
}

// TestServeCloserError: the closer's failure is Serve's when nothing
// failed before it.
func TestServeCloserError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	boom := errors.New("wal: boom")
	err := Serve(ctx, listen(t), Spec{Handler: http.NotFoundHandler(), Close: func() error { return boom }})
	if !errors.Is(err, boom) {
		t.Fatalf("Serve = %v, want the closer's error", err)
	}
}

// TestOnSIGHUP: the action runs once per SIGHUP raised at this process,
// and stop waits for it and detaches it.
func TestOnSIGHUP(t *testing.T) {
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	stop := onSIGHUP(func() { ran <- struct{}{} })
	for i := 1; i <= 3; i++ {
		if err := self.Signal(syscall.SIGHUP); err != nil {
			stop()
			t.Skipf("cannot signal self: %v", err)
		}
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatalf("SIGHUP %d: action did not run", i)
		}
	}
	stop()
	select {
	case <-ran:
		t.Fatal("action ran a fourth time for three SIGHUPs")
	default:
	}
}
