// Package resource implements the ResourceManager of §2.2 and §5.3: the
// component that makes host resources available to alien naplets in a
// controlled manner.
//
// Services run in one of two protection modes:
//
//   - Non-privileged (open) services, "like routines in math libraries, are
//     registered in the ResourceManager as open services and can be called
//     via their handlers".
//   - Privileged services "must be accessed via ServiceChannel objects".
//     A service channel is a synchronous pipe: the server assigns one pair
//     of endpoints (ServiceReader/ServiceWriter) to the service and leaves
//     the other pair (NapletReader/NapletWriter) to the naplet. The
//     ResourceManager creates channels on request and applies
//     naplet-specific access control, based on naplet credentials, in the
//     allocation of service channels.
//
// The mechanism/policy separation is explicit: the manager implements
// allocation; which naplets may open which channels is decided by the
// pluggable security manager.
package resource

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/cred"
	"repro/internal/naplet"
	"repro/internal/security"
)

// OpenService is a non-privileged service: a plain function callable by
// handler.
type OpenService func(args []string) (string, error)

// PrivilegedService is the paper's PrivilegedService base class: a run loop
// that reads request lines from its ServiceReader and writes reply lines to
// its ServiceWriter until the channel closes.
type PrivilegedService interface {
	Serve(ch *ServerEnd)
}

// ServiceFunc adapts a function to PrivilegedService.
type ServiceFunc func(ch *ServerEnd)

// Serve implements PrivilegedService.
func (f ServiceFunc) Serve(ch *ServerEnd) { f(ch) }

// Factory creates a fresh privileged-service instance per channel, so
// stateful run loops are isolated between naplets.
type Factory func() PrivilegedService

// Errors reported by the resource manager.
var (
	ErrUnknownService = errors.New("resource: unknown service")
	ErrChannelClosed  = errors.New("resource: service channel closed")
	ErrDuplicate      = errors.New("resource: service already registered")
)

// channel is one allocated service channel: both directions' line queues
// under one lock, the two endpoints, and the service instance whose run
// loop serves it. Each direction is an unbounded FIFO. Writes after close
// fail; reads drain buffered lines and then report io.EOF.
type channel struct {
	mu        sync.Mutex
	cond      sync.Cond // on mu; a reader of either direction waits on it
	toService lineQueue // naplet writes -> service reads
	toNaplet  lineQueue // service writes -> naplet reads
	closed    bool

	naplet NapletEnd
	server ServerEnd
	svc    PrivilegedService
}

// lineQueue is one direction's unread lines, oldest first. They start in
// buf and go back to it whenever the queue drains, so a lockstep exchange
// of one line each way never grows the slice.
type lineQueue struct {
	lines []string
	buf   [1]string
}

func (q *lineQueue) pop() string {
	line := q.lines[0]
	q.lines[0] = ""
	if q.lines = q.lines[1:]; len(q.lines) == 0 {
		q.lines = q.buf[:0]
	}
	return line
}

// serve runs the service on the channel and closes it when Serve returns.
func (c *channel) serve() {
	defer c.close()
	c.svc.Serve(&c.server)
}

func (c *channel) write(q *lineQueue, line string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrChannelClosed
	}
	q.lines = append(q.lines, line)
	c.cond.Broadcast()
	return nil
}

func (c *channel) read(q *lineQueue) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(q.lines) == 0 && !c.closed {
		c.cond.Wait()
	}
	if len(q.lines) == 0 {
		return "", io.EOF
	}
	return q.pop(), nil
}

func (c *channel) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.cond.Broadcast()
}

// NapletEnd is the naplet-side endpoint pair (NapletWriter + NapletReader).
// It implements naplet.ServiceChannel.
type NapletEnd struct {
	ch *channel
}

// WriteLine sends a request line to the privileged service (NapletWriter).
func (e *NapletEnd) WriteLine(line string) error { return e.ch.write(&e.ch.toService, line) }

// ReadLine receives a reply line from the service (NapletReader). It
// returns io.EOF after the channel closes and drains.
func (e *NapletEnd) ReadLine() (string, error) { return e.ch.read(&e.ch.toNaplet) }

// Close releases the channel; the service's Serve loop observes EOF.
func (e *NapletEnd) Close() error {
	e.ch.close()
	return nil
}

// ServerEnd is the service-side endpoint pair (ServiceReader +
// ServiceWriter).
type ServerEnd struct {
	ch *channel
	// Naplet identifies the client naplet, so services can apply
	// naplet-specific behaviour or auditing.
	Naplet cred.Credential
}

// ReadLine receives a request line from the naplet (ServiceReader);
// io.EOF after close.
func (e *ServerEnd) ReadLine() (string, error) { return e.ch.read(&e.ch.toService) }

// WriteLine sends a reply line to the naplet (ServiceWriter).
func (e *ServerEnd) WriteLine(line string) error { return e.ch.write(&e.ch.toNaplet, line) }

// Close releases the channel from the service side.
func (e *ServerEnd) Close() error {
	e.ch.close()
	return nil
}

// Manager is the per-server ResourceManager. It is safe for concurrent use
// and supports dynamic (re)configuration of services ("the service channel
// mechanism enables dynamic installation and re-configuration of
// application services", §5.3).
type Manager struct {
	security *security.Manager

	mu   sync.RWMutex
	open map[string]OpenService
	priv map[string]privileged
}

// privileged is a registered privileged service: its factory and the
// permission a naplet needs to open a channel to it.
type privileged struct {
	factory Factory
	perm    security.Permission
}

// NewManager builds a resource manager enforcing access control with sec
// (nil means no checks, the promiscuous testbed configuration).
func NewManager(sec *security.Manager) *Manager {
	return &Manager{
		security: sec,
		open:     make(map[string]OpenService),
		priv:     make(map[string]privileged),
	}
}

// RegisterOpen installs a non-privileged service under name.
func (m *Manager) RegisterOpen(name string, f OpenService) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.open[name]; dup {
		return fmt.Errorf("%w: open service %q", ErrDuplicate, name)
	}
	m.open[name] = f
	return nil
}

// RegisterPrivileged installs a privileged service factory under name.
// Naplets reach it only through service channels.
func (m *Manager) RegisterPrivileged(name string, f Factory) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.priv[name]; dup {
		return fmt.Errorf("%w: privileged service %q", ErrDuplicate, name)
	}
	m.priv[name] = privileged{factory: f, perm: security.ServicePermission(name)}
	return nil
}

// CallOpen invokes an open service by handler.
func (m *Manager) CallOpen(name string, args []string) (string, error) {
	m.mu.RLock()
	f, ok := m.open[name]
	m.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("%w: open service %q", ErrUnknownService, name)
	}
	return f(args)
}

// OpenChannel allocates a service channel between the naplet identified by
// c and the named privileged service, enforcing the security policy. The
// service's Serve loop runs in its own goroutine; the returned naplet end
// is handed to the requesting naplet.
func (m *Manager) OpenChannel(c *cred.Credential, name string) (naplet.ServiceChannel, error) {
	m.mu.RLock()
	p, ok := m.priv[name]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: privileged service %q", ErrUnknownService, name)
	}
	if m.security != nil {
		if err := m.security.Check(c, p.perm); err != nil {
			return nil, err
		}
	}
	ch := &channel{svc: p.factory()}
	ch.cond.L = &ch.mu
	ch.toService.lines, ch.toNaplet.lines = ch.toService.buf[:0], ch.toNaplet.buf[:0]
	ch.naplet.ch, ch.server.ch = ch, ch
	if c != nil {
		ch.server.Naplet = *c
	}
	go ch.serve()
	return &ch.naplet, nil
}

// PrivilegedNames lists registered privileged services, sorted.
func (m *Manager) PrivilegedNames() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.priv))
	for n := range m.priv {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// View binds the resource manager to one naplet's credential, implementing
// naplet.ServicesAPI. It tracks the channels the naplet opened so the
// runtime can reclaim them when the visit ends ("success of a launch will
// release all the resources occupied by the naplet", §2.2). A View is bound
// in place (Bind), so it can live inside the stay that uses it.
type View struct {
	mgr  *Manager
	cred *cred.Credential

	mu       sync.Mutex
	channels []naplet.ServiceChannel // over first until a second is opened
	first    [1]naplet.ServiceChannel
}

// Bind points the view at mgr and the naplet's credential c, before use.
func (v *View) Bind(mgr *Manager, c *cred.Credential) {
	v.mgr, v.cred = mgr, c
	v.channels = v.first[:0]
}

// CallOpen implements naplet.ServicesAPI.
func (v *View) CallOpen(name string, args []string) (string, error) {
	return v.mgr.CallOpen(name, args)
}

// OpenChannel implements naplet.ServicesAPI.
func (v *View) OpenChannel(name string) (naplet.ServiceChannel, error) {
	ch, err := v.mgr.OpenChannel(v.cred, name)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.channels = append(v.channels, ch)
	v.mu.Unlock()
	return ch, nil
}

// Channels implements naplet.ServicesAPI.
func (v *View) Channels() []string { return v.mgr.PrivilegedNames() }

// ReleaseAll closes every channel the naplet opened during the visit.
func (v *View) ReleaseAll() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, ch := range v.channels {
		ch.Close()
	}
	clear(v.channels)
	v.channels = v.first[:0]
}
