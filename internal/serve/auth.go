package serve

import (
	"context"
	"net/http"
	"strings"

	"repro/internal/serve/api"
	"repro/internal/serve/jobs"
)

// Bearer-token authentication: when the server runs with a tenant file
// (BatchOptions.Tenants), every API request must carry
// "Authorization: Bearer <token>" naming a configured tenant. The
// authenticated tenant ID rides the request context into job
// submission (WFQ weight + quota), job visibility (a tenant sees only
// its own jobs), and listing filters. /healthz and /metrics stay open —
// liveness probes, load balancers, and scrape agents must not need
// credentials (and the exposition names tenants by ID, never by token). Without a tenant file the middleware
// is a no-op and the server behaves exactly as before.
//
// The middleware reads the live tenant set per request (Server.tenants,
// an atomic pointer), so a SIGHUP reload rotates tokens without a
// restart: in-flight requests finish under whichever set they started
// with, and the next request sees the new one.

// tenantKey carries the authenticated tenant ID through the request
// context.
type tenantKey struct{}

// tenantFrom returns the request's authenticated tenant ID ("" when
// tenancy is off).
func tenantFrom(ctx context.Context) string {
	id, _ := ctx.Value(tenantKey{}).(string)
	return id
}

// withAuth enforces bearer-token authentication when tenancy is on.
// Tenancy on/off is fixed at boot (the handler chain is already built);
// the token table itself is re-read per request so reloads take effect.
func (s *Server) withAuth(next http.Handler) http.Handler {
	if !s.tenantSet().Enabled() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			next.ServeHTTP(w, r)
			return
		}
		const prefix = "Bearer "
		auth := r.Header.Get("Authorization")
		if auth == "" {
			writeUnauthorized(w, "missing Authorization header")
			return
		}
		if !strings.HasPrefix(auth, prefix) {
			writeUnauthorized(w, "Authorization header is not a bearer token")
			return
		}
		tc, ok := s.tenantSet().Lookup(strings.TrimSpace(auth[len(prefix):]))
		if !ok {
			writeUnauthorized(w, "unknown bearer token")
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, tc.ID)))
	})
}

// writeUnauthorized sends the 401 envelope. The message never echoes
// the presented token.
func writeUnauthorized(w http.ResponseWriter, msg string) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="cimloop"`)
	writeAPIError(w, http.StatusUnauthorized, api.Errorf(api.CodeUnauthorized, "%s", msg))
}

// jobForTenant fetches a job under tenant scoping: with tenancy on, a
// tenant resolves only its own jobs — another tenant's job ID answers
// 404 exactly like a nonexistent one, so job existence does not leak
// across tenants. With tenancy off it is plain Job.
func (s *Server) jobForTenant(r *http.Request, id string) (jobs.Snapshot, bool) {
	snap, ok := s.Job(id)
	if !ok {
		return snap, false
	}
	if s.tenantSet().Enabled() && snap.Tenant != tenantFrom(r.Context()) {
		return jobs.Snapshot{}, false
	}
	return snap, true
}
