package livestats

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendJSONString appends s as a JSON string, byte for byte as
// encoding/json renders a string. That includes its HTML escaping: <, >
// and &, control bytes other than the five with short escapes, and the
// separators U+2028 and U+2029 are written as six-byte Unicode escapes,
// and each byte of invalid UTF-8 as the escape of U+FFFD.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// AppendJSONFloat appends f as a JSON number, byte for byte as
// encoding/json renders a float64: the shortest decimal that round-trips,
// in exponent form below 1e-6 and from 1e21 on, with the exponent's
// leading zero dropped. NaN and ±Inf have no JSON form: they are rejected
// with encoding/json's error text, and dst is returned unchanged.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, unsupportedFloat(f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// unsupportedFloat is encoding/json's error for a float it cannot encode.
type unsupportedFloat float64

func (f unsupportedFloat) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(f), 'g', -1, 64)
}
