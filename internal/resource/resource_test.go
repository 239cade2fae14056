package resource

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cred"
	"repro/internal/id"
	"repro/internal/security"
)

var t0 = time.Date(2001, 5, 12, 17, 27, 20, 0, time.UTC)

func testCred(t *testing.T, ring *cred.KeyRing, owner string, roles ...string) cred.Credential {
	t.Helper()
	nid := id.MustNew(owner, "home", t0)
	c, err := ring.Issue(nid, "cb", roles, t0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// echoService is a line-reversing privileged service.
func echoService() PrivilegedService {
	return ServiceFunc(func(ch *ServerEnd) {
		for {
			line, err := ch.ReadLine()
			if err != nil {
				return
			}
			ch.WriteLine("svc:" + line)
		}
	})
}

func TestOpenServiceCall(t *testing.T) {
	m := NewManager(nil)
	if err := m.RegisterOpen("math.add", func(args []string) (string, error) {
		return strings.Join(args, "+"), nil
	}); err != nil {
		t.Fatal(err)
	}
	got, err := m.CallOpen("math.add", []string{"1", "2"})
	if err != nil || got != "1+2" {
		t.Fatalf("CallOpen: %q %v", got, err)
	}
	if _, err := m.CallOpen("ghost", nil); !errors.Is(err, ErrUnknownService) {
		t.Fatalf("want ErrUnknownService, got %v", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	m := NewManager(nil)
	m.RegisterOpen("a", func([]string) (string, error) { return "", nil })
	if err := m.RegisterOpen("a", nil); !errors.Is(err, ErrDuplicate) {
		t.Fatal(err)
	}
	m.RegisterPrivileged("p", echoService)
	if err := m.RegisterPrivileged("p", echoService); !errors.Is(err, ErrDuplicate) {
		t.Fatal(err)
	}
}

func TestServiceChannelRoundTrip(t *testing.T) {
	m := NewManager(nil)
	m.RegisterPrivileged("echo", echoService)
	ch, err := m.OpenChannel(nil, "echo")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	// The paper's NMNaplet pattern: write parameters, read results.
	if err := ch.WriteLine("sysDescr;sysUpTime"); err != nil {
		t.Fatal(err)
	}
	line, err := ch.ReadLine()
	if err != nil || line != "svc:sysDescr;sysUpTime" {
		t.Fatalf("ReadLine: %q %v", line, err)
	}
	// Repeated inquiries over the same channel.
	ch.WriteLine("ifTable")
	line, _ = ch.ReadLine()
	if line != "svc:ifTable" {
		t.Fatalf("second inquiry: %q", line)
	}
}

func TestChannelCloseEOF(t *testing.T) {
	m := NewManager(nil)
	m.RegisterPrivileged("echo", echoService)
	ch, _ := m.OpenChannel(nil, "echo")
	ch.WriteLine("x")
	if _, err := ch.ReadLine(); err != nil {
		t.Fatal(err)
	}
	ch.Close()
	if err := ch.WriteLine("y"); !errors.Is(err, ErrChannelClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, err := ch.ReadLine(); !errors.Is(err, io.EOF) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestServiceSideClose(t *testing.T) {
	m := NewManager(nil)
	m.RegisterPrivileged("oneshot", func() PrivilegedService {
		return ServiceFunc(func(ch *ServerEnd) {
			line, _ := ch.ReadLine()
			ch.WriteLine("got:" + line)
			// Serve returns; the manager closes the channel.
		})
	})
	ch, _ := m.OpenChannel(nil, "oneshot")
	ch.WriteLine("q")
	if line, err := ch.ReadLine(); err != nil || line != "got:q" {
		t.Fatalf("reply: %q %v", line, err)
	}
	// After the service loop returns, reads drain then EOF.
	if _, err := ch.ReadLine(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after service exit, got %v", err)
	}
}

func TestChannelAccessControl(t *testing.T) {
	ring := cred.NewKeyRing()
	ring.Register("alice", []byte("ka"))
	ring.Register("bob", []byte("kb"))
	admin := testCred(t, ring, "alice", "netadmin")
	guest := testCred(t, ring, "bob")

	policy := security.Policy{
		Rules: []security.Rule{
			{Principal: "role:netadmin", Permissions: []security.Permission{security.ServicePermission("snmp")}, Effect: security.Allow},
		},
		Default: security.Deny,
	}
	sec := security.NewManager(ring, policy, func() time.Time { return t0 })
	m := NewManager(sec)
	m.RegisterPrivileged("snmp", echoService)

	ch, err := m.OpenChannel(&admin, "snmp")
	if err != nil {
		t.Fatalf("admin channel: %v", err)
	}
	defer ch.Close()
	if err := ch.WriteLine("sysDescr"); err != nil {
		t.Fatal(err)
	}
	if line, err := ch.ReadLine(); err != nil || line != "svc:sysDescr" {
		t.Fatalf("admin round trip: %q %v", line, err)
	}
	if _, err := m.OpenChannel(&guest, "snmp"); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("guest channel must be denied: %v", err)
	}
}

func TestPerChannelServiceInstances(t *testing.T) {
	// Each channel must get a fresh service instance: stateful loops are
	// isolated between naplets.
	var instances int
	var mu sync.Mutex
	m := NewManager(nil)
	m.RegisterPrivileged("counter", func() PrivilegedService {
		mu.Lock()
		instances++
		mu.Unlock()
		count := 0
		return ServiceFunc(func(ch *ServerEnd) {
			for {
				if _, err := ch.ReadLine(); err != nil {
					return
				}
				count++
				ch.WriteLine(fmt.Sprint(count))
			}
		})
	})
	a, _ := m.OpenChannel(nil, "counter")
	b, _ := m.OpenChannel(nil, "counter")
	a.WriteLine("x")
	a.WriteLine("x")
	b.WriteLine("x")
	a.ReadLine()
	if line, _ := a.ReadLine(); line != "2" {
		t.Fatalf("a count = %q", line)
	}
	if line, _ := b.ReadLine(); line != "1" {
		t.Fatalf("b count = %q, state leaked between channels", line)
	}
	mu.Lock()
	defer mu.Unlock()
	if instances != 2 {
		t.Fatalf("instances = %d", instances)
	}
}

func TestUnknownPrivilegedService(t *testing.T) {
	m := NewManager(nil)
	if _, err := m.OpenChannel(nil, "ghost"); !errors.Is(err, ErrUnknownService) {
		t.Fatal(err)
	}
}

func TestViewTracksAndReleasesChannels(t *testing.T) {
	m := NewManager(nil)
	m.RegisterPrivileged("echo", echoService)
	var v View
	v.Bind(m, nil)
	ch, err := v.OpenChannel("echo")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Channels(); len(got) != 1 || got[0] != "echo" {
		t.Fatalf("Channels() = %v", got)
	}
	v.ReleaseAll()
	if err := ch.WriteLine("x"); !errors.Is(err, ErrChannelClosed) {
		t.Fatal("ReleaseAll must close naplet channels")
	}
	// ReleaseAll is idempotent.
	v.ReleaseAll()
}

func TestViewCallOpen(t *testing.T) {
	m := NewManager(nil)
	m.RegisterOpen("f", func(args []string) (string, error) { return "ok", nil })
	var v View
	v.Bind(m, nil)
	if got, err := v.CallOpen("f", nil); err != nil || got != "ok" {
		t.Fatalf("View.CallOpen: %q %v", got, err)
	}
}

func TestConcurrentChannelUse(t *testing.T) {
	m := NewManager(nil)
	m.RegisterPrivileged("echo", echoService)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ch, err := m.OpenChannel(nil, "echo")
			if err != nil {
				t.Error(err)
				return
			}
			defer ch.Close()
			for j := 0; j < 10; j++ {
				msg := fmt.Sprintf("m%d.%d", i, j)
				ch.WriteLine(msg)
				line, err := ch.ReadLine()
				if err != nil || line != "svc:"+msg {
					t.Errorf("got %q %v", line, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// mirror is a privileged service that writes every line back as it is: a
// run loop that allocates nothing.
var mirror = ServiceFunc(func(ch *ServerEnd) {
	for {
		line, err := ch.ReadLine()
		if err != nil {
			return
		}
		ch.WriteLine(line)
	}
})

// TestChannelAllocBudget pins what a warm service channel costs: open, one
// line each way and a close, through a service that allocates nothing, is
// the channel object and its service goroutine (11 or more while each
// direction was a pipe of its own with its own condition variable, each
// end a separate object, and every write regrew its queue).
func TestChannelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const budget = 3
	m := NewManager(nil)
	m.RegisterPrivileged("mirror", func() PrivilegedService { return mirror })
	var v View
	v.Bind(m, nil)
	allocs := testing.AllocsPerRun(200, func() {
		ch, err := v.OpenChannel("mirror")
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.WriteLine("sysDescr"); err != nil {
			t.Fatal(err)
		}
		if line, err := ch.ReadLine(); err != nil || line != "sysDescr" {
			t.Fatalf("round trip: %q %v", line, err)
		}
		v.ReleaseAll()
		// AllocsPerRun runs on one P, where the woken service would wait
		// behind this loop and each run would start a goroutine afresh:
		// let it see the close and exit, as it does when a stay ends.
		runtime.Gosched()
	})
	t.Logf("%.1f allocs per channel round trip (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("a channel round trip allocates %.1f times, budget %d", allocs, budget)
	}
}

// TestChannelQueuesAreUnbounded holds each direction to an unbounded FIFO:
// lines written before anyone reads are all kept, in order, whichever end
// wrote them; after a close from either end a read drains what is buffered
// and then reports io.EOF, and writes from both ends fail.
func TestChannelQueuesAreUnbounded(t *testing.T) {
	const n = 1000
	m := NewManager(nil)
	// batch reads every request before it answers any: the naplet's lines
	// queue toward the service, then the replies queue toward the naplet.
	m.RegisterPrivileged("batch", func() PrivilegedService {
		return ServiceFunc(func(ch *ServerEnd) {
			lines := make([]string, 0, n)
			for len(lines) < n {
				line, err := ch.ReadLine()
				if err != nil {
					return
				}
				lines = append(lines, line)
			}
			for _, line := range lines {
				ch.WriteLine("re:" + line)
			}
			// Block until the naplet closes the channel.
			ch.ReadLine()
		})
	})
	var v View
	for stay := 0; stay < 2; stay++ {
		v.Bind(m, nil)
		ch, err := v.OpenChannel("batch")
		if err != nil {
			t.Fatal(err)
		}
		// A queue that loses lines leaves both ends waiting: end the wait.
		watchdog := time.AfterFunc(10*time.Second, func() { ch.Close() })
		for i := 0; i < n; i++ {
			if err := ch.WriteLine(fmt.Sprint(stay, ".", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			want := fmt.Sprint("re:", stay, ".", i)
			if line, err := ch.ReadLine(); err != nil || line != want {
				t.Fatalf("stay %d reply %d: %q %v, want %q", stay, i, line, err, want)
			}
		}
		watchdog.Stop()
		v.ReleaseAll()
		if err := ch.WriteLine("x"); !errors.Is(err, ErrChannelClosed) {
			t.Fatalf("stay %d: write after ReleaseAll: %v", stay, err)
		}
	}

	// A close from the naplet's end or the service's: buffered replies are
	// still read, then io.EOF, and neither end can write.
	for _, side := range []string{"naplet", "service"} {
		ends := make(chan *ServerEnd, 1)
		m.RegisterPrivileged("hold-"+side, func() PrivilegedService {
			return ServiceFunc(func(ch *ServerEnd) {
				for i := 0; i < n; i++ {
					ch.WriteLine(fmt.Sprint(i))
				}
				ends <- ch
				ch.ReadLine() // until the channel closes
			})
		})
		ch, err := m.OpenChannel(nil, "hold-"+side)
		if err != nil {
			t.Fatal(err)
		}
		server := <-ends
		if side == "naplet" {
			ch.Close()
		} else {
			server.Close()
		}
		for i := 0; i < n; i++ {
			if line, err := ch.ReadLine(); err != nil || line != fmt.Sprint(i) {
				t.Fatalf("%s close: buffered line %d read as %q %v", side, i, line, err)
			}
		}
		if _, err := ch.ReadLine(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s close: read after drain: %v, want io.EOF", side, err)
		}
		if err := ch.WriteLine("x"); !errors.Is(err, ErrChannelClosed) {
			t.Fatalf("%s close: naplet write: %v", side, err)
		}
		if err := server.WriteLine("x"); !errors.Is(err, ErrChannelClosed) {
			t.Fatalf("%s close: service write: %v", side, err)
		}
		ch.Close() // again, from either end
		server.Close()
	}
}
