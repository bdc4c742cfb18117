package api

import (
	"errors"
	"fmt"
)

// ErrorCode is a stable, machine-readable error class. Codes are part of
// the v1 contract: clients key retry and reporting logic on them, so a
// code, once shipped, never changes meaning. The HTTP status carries the
// transport semantics (4xx vs 5xx, cacheability); the code carries the
// application semantics.
type ErrorCode string

const (
	// CodeInvalidRequest covers malformed bodies, unknown fields,
	// oversized payloads (HTTP 413), unknown macros/networks/scenarios,
	// and bad query parameters.
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeNotFound covers unknown routes and unknown resource IDs.
	CodeNotFound ErrorCode = "not_found"
	// CodeMethodNotAllowed is a known route with the wrong HTTP method;
	// the Allow response header lists the supported ones.
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// CodeUnauthorized is a missing, malformed, or wrong bearer token on
	// a server running with a token file (HTTP 401). The response
	// carries a WWW-Authenticate: Bearer header.
	CodeUnauthorized ErrorCode = "unauthorized"
	// CodeDeadlineExceeded is a sweep killed by its own timeout_sec
	// (HTTP 504) — a server-side timeout, not a malformed request.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeNotImplemented is an endpoint this deployment has not wired
	// (HTTP 501), e.g. /v1/experiments on an embedded server without the
	// experiment runner.
	CodeNotImplemented ErrorCode = "not_implemented"
	// CodeInternal is a recovered panic or other server-side failure
	// (HTTP 500). The message is intentionally vague; details stay in
	// server logs.
	CodeInternal ErrorCode = "internal"
)

// Error is the v1 error envelope: every non-2xx response body (including
// 404s for unknown routes and recovered panics) is exactly this shape,
// always served as application/json.
type Error struct {
	// Code is the stable machine-readable class.
	Code ErrorCode `json:"code"`
	// Message is human-readable detail. Clients must not parse it.
	Message string `json:"message"`
	// Details carries optional structured context (e.g. "max_bytes" on an
	// oversized body, "allow" on a 405).
	Details map[string]string `json:"details,omitempty"`

	// HTTPStatus is the transport status the envelope arrived with. It is
	// not serialized — the status line already carries it — but the client
	// SDK fills it in so callers can switch on either.
	HTTPStatus int `json:"-"`
}

// Error makes the envelope a Go error; the client SDK returns decoded
// envelopes directly.
func (e *Error) Error() string {
	if e.HTTPStatus != 0 {
		return fmt.Sprintf("%s (HTTP %d): %s", e.Code, e.HTTPStatus, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errorf builds an envelope with a formatted message.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// IsCode reports whether err is (or wraps) a v1 error envelope with the
// given code.
func IsCode(err error, code ErrorCode) bool {
	var e *Error
	return errors.As(err, &e) && e.Code == code
}
