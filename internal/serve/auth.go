package serve

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"

	"repro/internal/serve/api"
)

// Bearer-token authentication: when the server runs with a token
// (BatchOptions.Token, normally read by LoadTokenFile), every API
// request must carry "Authorization: Bearer <token>". /healthz and
// /metrics stay open — liveness probes, load balancers, and scrape
// agents must not need credentials. Without a token the middleware is a
// no-op and the server is open.
//
// There is one principal: whoever holds the token may call every
// route. The middleware reads the live token per request (Server.token, an atomic
// pointer), so a SIGHUP reload rotates it without a restart: in-flight
// requests finish under whichever token they started with, and the next
// request sees the new one.

// parseToken validates the contents of a token file: one token,
// surrounding whitespace (a trailing newline, say) trimmed. An empty
// file, or one whose text has inner whitespace — two tokens, or a
// config file passed by mistake — is refused.
func parseToken(text string) (string, error) {
	tok := strings.TrimSpace(text)
	if tok == "" {
		return "", errors.New("token: file is empty")
	}
	if strings.ContainsAny(tok, " \t\r\n") {
		return "", errors.New("token: file must hold exactly one token with no inner whitespace")
	}
	return tok, nil
}

// LoadTokenFile reads and validates a bearer-token file.
func LoadTokenFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("token: %w", err)
	}
	return parseToken(string(data))
}

// withAuth enforces bearer-token authentication when the server booted
// with a token. Auth on/off is fixed at boot (the handler chain is
// already built); the token itself is re-read per request so reloads
// take effect.
func (s *Server) withAuth(next http.Handler) http.Handler {
	if s.opts.Token == "" {
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
		// Constant time: response timing must not leak how much of a
		// guessed token matched.
		got := strings.TrimSpace(auth[len(prefix):])
		if subtle.ConstantTimeCompare([]byte(*s.token.Load()), []byte(got)) != 1 {
			writeUnauthorized(w, "wrong bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// writeUnauthorized sends the 401 envelope. The message never echoes
// the presented token.
func writeUnauthorized(w http.ResponseWriter, msg string) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="cimloop"`)
	writeAPIError(w, http.StatusUnauthorized, api.Errorf(api.CodeUnauthorized, "%s", msg))
}

// ReloadToken swaps in a new bearer token without a restart — the
// SIGHUP rotation path. The server must have booted with a token (an
// open server cannot be locked down retroactively: its handler chain was
// built without the auth middleware), and the new token must be
// non-empty. On any error the old token stays in force. Reloads are
// counted in the registry (cimloop_token_reloads_total) and surfaced in
// /healthz.
func (s *Server) ReloadToken(token string) error {
	var err error
	switch {
	case s.opts.Token == "":
		err = errors.New("serve: auth is off; restart with -token-file to enable it")
	case token == "":
		err = errors.New("serve: refusing to load an empty token")
	}
	if err != nil {
		s.met.tokenReloads.With("error").Inc()
		return err
	}
	s.token.Store(&token)
	s.met.tokenReloads.With("ok").Inc()
	return nil
}

// ReloadTokenFile is ReloadToken from a file path: read and validate
// first, swap only on success — a broken file on disk leaves the running
// token untouched (and the failure counted).
func (s *Server) ReloadTokenFile(path string) error {
	token, err := LoadTokenFile(path)
	if err != nil {
		s.met.tokenReloads.With("error").Inc()
		return err
	}
	return s.ReloadToken(token)
}
