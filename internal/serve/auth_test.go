package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testToken is the bearer token of the authenticated test servers.
const testToken = "secret-a"

// authClient is testClient with header control: do() takes the bearer
// token ("" sends no Authorization header; a "raw:" prefix sends the
// rest as the whole header) and returns the response headers alongside
// the decoded body.
func authClient(t *testing.T, srv *Server) (*httptest.Server, func(token, method, path, body string) (int, http.Header, map[string]any)) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, func(token, method, path, body string) (int, http.Header, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasPrefix(token, "raw:"):
			req.Header.Set("Authorization", strings.TrimPrefix(token, "raw:"))
		case token != "":
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
		return resp.StatusCode, resp.Header, out
	}
}

// writeFile writes text into a fresh temp file and returns its path.
func writeFile(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// sweep POSTs a sweep with a bearer token and returns its results.
func sweep(t *testing.T, do func(token, method, path, body string) (int, http.Header, map[string]any), token, body string) []any {
	t.Helper()
	status, _, out := do(token, "POST", "/v1/sweep", body)
	results, _ := out["results"].([]any)
	if status != http.StatusOK || len(results) == 0 {
		t.Fatalf("sweep: %d %v", status, out)
	}
	return results
}

// TestLoadTokenFileValid pins the token-file format: one token, with
// surrounding whitespace trimmed.
func TestLoadTokenFileValid(t *testing.T) {
	tok, err := LoadTokenFile(writeFile(t, "token", "  "+testToken+"\n"))
	if err != nil || tok != testToken {
		t.Fatalf("LoadTokenFile = %q, %v", tok, err)
	}
}

// TestLoadTokenFileErrors: anything but one token is refused with a
// named error, so an old tenants file cannot boot an open server.
func TestLoadTokenFileErrors(t *testing.T) {
	cases := []struct{ name, text, wantErr string }{
		{"empty", "", "empty"},
		{"whitespace only", " \n\t\n", "empty"},
		{"two tokens", "a b\n", "exactly one token"},
		{"old tenants file", "tenants:\n  - id: a\n    token: x\n", "exactly one token"},
	}
	for _, tc := range cases {
		if _, err := LoadTokenFile(writeFile(t, "token", tc.text)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	if _, err := LoadTokenFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("a missing file must be an error")
	}
}

// TestOpenServerWithoutToken: with no token the auth middleware is not
// installed at all, so requests need no header and a stray one is
// ignored.
func TestOpenServerWithoutToken(t *testing.T) {
	srv := NewServer(BatchOptions{})
	defer srv.Close()
	_, do := authClient(t, srv)
	for _, token := range []string{"", "anything"} {
		if status, _, out := do(token, "GET", "/v1/macros", ""); status != http.StatusOK {
			t.Fatalf("open server with token %q: %d %v", token, status, out)
		}
	}
}

func TestAuthRejectsAndAdmits(t *testing.T) {
	srv := NewServer(BatchOptions{Workers: 1, Token: testToken})
	defer srv.Close()
	ts, do := authClient(t, srv)

	// Every rejection is the same 401 unauthorized envelope with a
	// WWW-Authenticate challenge, and never echoes the presented token.
	for _, tc := range []struct{ name, token string }{
		{"missing header", ""},
		{"non-bearer header", "raw:Basic c2VjcmV0LXo6"},
		{"wrong token", "secret-z"},
		{"token prefix", testToken[:len(testToken)-1]},
	} {
		status, hdr, out := do(tc.token, "GET", "/v1/macros", "")
		code, msg := envelope(t, out)
		if status != http.StatusUnauthorized || code != "unauthorized" {
			t.Fatalf("%s: %d %v", tc.name, status, out)
		}
		if !strings.Contains(hdr.Get("WWW-Authenticate"), "Bearer") {
			t.Fatalf("%s: missing WWW-Authenticate challenge: %v", tc.name, hdr)
		}
		if strings.Contains(msg, "secret") || strings.Contains(msg, "c2VjcmV0") {
			t.Fatalf("%s: 401 message echoes the token: %q", tc.name, msg)
		}
	}

	// /healthz and /metrics stay open: probes and scrapers carry no
	// credentials.
	status, _, out := do("", "GET", "/healthz", "")
	if status != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz without token: %d %v", status, out)
	}
	if status, _, _ := rawGet(t, ts, "/metrics", ""); status != http.StatusOK {
		t.Fatalf("metrics without token: %d", status)
	}

	// The token is admitted on every /v1 route.
	status, _, out = do(testToken, "GET", "/v1/macros", "")
	if status != http.StatusOK || out["macros"] == nil {
		t.Fatalf("authorized request: %d %v", status, out)
	}
	body := `{"macros": ["base"], "networks": ["toy"], "max_mappings": 2}`
	sweep(t, do, testToken, body)
	if status, _, _ := do("", "POST", "/v1/sweep", body); status != http.StatusUnauthorized {
		t.Fatalf("sweep without token: %d, want 401", status)
	}
}
