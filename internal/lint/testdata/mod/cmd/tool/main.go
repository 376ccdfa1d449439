// Command tool takes the cmd layer from its path: no finding.
package main

func main() {}
