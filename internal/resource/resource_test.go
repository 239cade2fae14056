package resource

import (
	"errors"
	"fmt"
	"io"
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
	if m.Stats().OpenCalls != 1 {
		t.Fatalf("stats: %+v", m.Stats())
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

	if _, err := m.OpenChannel(&admin, "snmp"); err != nil {
		t.Fatalf("admin channel: %v", err)
	}
	if _, err := m.OpenChannel(&guest, "snmp"); !errors.Is(err, security.ErrDenied) {
		t.Fatalf("guest channel must be denied: %v", err)
	}
	s := m.Stats()
	if s.ChannelsOpened != 1 || s.ChannelsDenied != 1 {
		t.Fatalf("stats: %+v", s)
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
